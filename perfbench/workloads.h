// The repo benchmark's workloads: t2_7 (pp-ladder) contractions built from
// a seed, run on the real runtime over the in-process 2-rank cluster, one
// submission at a time for the closed-loop driver in ledger.cpp. Why each
// workload exists, and which layers it stresses, is in README.md.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ptg/trace.h"
#include "tce/block_tensor.h"
#include "tce/chain_plan.h"
#include "tce/tiles.h"
#include "vc/cluster.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

constexpr int kRanks = 2;
constexpr int kWorkersPerRank = 2;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What one operation did. Counters are summed over ranks.
struct OpResult {
  double wall_ms = 0.0;   ///< the client's view: call to return
  std::string error;      ///< empty = completed and matched the reference
  uint64_t remote_activations = 0;
  uint64_t sched_steals = 0;
  uint64_t sched_steal_attempts = 0;
  uint64_t sched_contended = 0;   ///< contended pushes + pops
  uint64_t steal_requests = 0;
  uint64_t tasks_migrated = 0;
  uint64_t messages = 0;  ///< fabric messages accepted during the operation
  uint64_t bytes = 0;
  /// Task and comm-send spans of every rank (traced setups only). Event
  /// times are offsets from the owning rank's trace epoch, so only
  /// same-rank differences are meaningful.
  mp::ptg::Trace trace;
  std::vector<std::string> class_names;  ///< class id -> name
};

/// Where one setup's time went. total_s runs from workload start to the
/// first result (the warm-up operation's return).
struct SetupTimes {
  double total_s = 0.0;
  double inspect_ms = 0.0;
  double template_build_ms = 0.0;
  double session_start_ms = 0.0;
  double first_submit_ms = 0.0;
  std::string error;  ///< the warm-up operation's error, if any
};

/// The GEMM call the workload's GEMM tasks make, for the kernel ceiling.
struct GemmShape {
  char transa = 'N';
  char transb = 'T';
  size_t m = 0, n = 0, k = 0;
  double alpha = 1.0;
};

struct Instance;

/// One t2_7 workload: a tile space, inputs generated from the seed, the
/// serial reference result, and the current runtime instance.
class Workload {
 public:
  Workload(std::string name, const mp::tce::TileSpaceSpec& spec, bool skewed,
           uint64_t seed);
  ~Workload();

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Input generation and the serial reference the operations are checked
  /// against. Not part of setup_s.
  void prepare();
  /// Build the runtime instance and run the warm-up operation. `traced`
  /// turns on the runtime's span recording.
  SetupTimes setup(bool traced);
  /// Drop the current instance: join its threads, free its arrays.
  void teardown();
  /// One timed submission on the current instance, checked afterwards.
  OpResult run_op();
  /// The current instance's cluster.
  mp::vc::Cluster& cluster();

  double flops_per_op() const { return flops_; }
  uint64_t tasks_per_op() const { return tasks_; }
  GemmShape gemm_shape() const { return shape_; }
  /// Serial single-thread execute_reference of the same plan.
  double reference_ms() const { return reference_ms_; }
  std::string describe() const;

 private:
  mp::tce::ChainPlan inspect() const;
  void scatter(Instance& inst) const;

  std::string name_;
  bool skewed_;
  uint64_t seed_;
  mp::tce::TileSpace space_;
  mp::tce::BlockTensor4 v_shape_, t_shape_, r_shape_;
  std::vector<double> v_data_, t_data_;
  std::vector<double> reference_, result_;
  double tol_ = 0.0;
  double reference_ms_ = 0.0;
  double flops_ = 0.0;
  GemmShape shape_;
  size_t num_chains_ = 0, num_gemms_ = 0;
  uint64_t tasks_ = 0;
  std::unique_ptr<Instance> inst_;
};

/// The workload named `name`, or nullptr when there is none.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed);
std::vector<std::string> workload_names();

/// The ISA the linalg kernels were compiled for.
const char* compiled_isa();

}  // namespace perfbench
