#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <exception>

#include "ga/global_array.h"
#include "support/rng.h"
#include "tce/imbalance.h"
#include "tce/inspector.h"
#include "tce/ptg_exec.h"
#include "tce/ptg_session.h"
#include "tce/reference_exec.h"
#include "tce/template_cache.h"

namespace perfbench {

using namespace mp;

/// One runtime instance: cluster, distributed tensors, plan, template and
/// persistent session. Members are destroyed in reverse order, so the
/// session's threads are joined before the arrays and cluster go away.
struct Instance {
  Instance(const tce::BlockTensor4& v, const tce::BlockTensor4& t,
           const tce::BlockTensor4& r)
      : cluster(kRanks),
        v_ga(&cluster, v.ga_size()),
        t_ga(&cluster, t.ga_size()),
        r_ga(&cluster, r.ga_size()) {
    storage.v = {&v, &v_ga};
    storage.t = {&t, &t_ga};
    storage.r = {&r, &r_ga};
  }

  vc::Cluster cluster;
  ga::GlobalArray v_ga, t_ga, r_ga;
  tce::T2_7Storage storage;
  tce::ChainPlan plan;
  tce::TemplateCache cache;
  std::shared_ptr<tce::PtgTemplate> tpl;
  std::unique_ptr<tce::PtgSession> session;
};

namespace {

/// Paper C9: parallel results agree with the serial reference to 1e-12,
/// taken relative to the reference's largest magnitude.
constexpr double kRelTol = 1e-12;

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

/// "" when every element of `got` is within tol of `want`, else the first
/// offending element.
std::string compare(const std::vector<double>& got,
                    const std::vector<double>& want, double tol) {
  if (got.size() != want.size()) return "result size mismatch";
  for (size_t i = 0; i < got.size(); ++i) {
    const double d = std::fabs(got[i] - want[i]);
    if (!(d <= tol)) {
      return "element " + std::to_string(i) + " off by " + std::to_string(d) +
             " (tolerance " + std::to_string(tol) + ")";
    }
  }
  return "";
}

std::vector<double> random_vector(int64_t n, Rng& rng) {
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

tce::TileSpaceSpec t27_spec(int occ, int virt, int tile) {
  tce::TileSpaceSpec s;
  s.n_occ_alpha = occ;
  s.n_occ_beta = occ;
  s.n_virt_alpha = virt;
  s.n_virt_beta = virt;
  s.tile_size = tile;
  return s;
}

}  // namespace

Workload::Workload(std::string name, const tce::TileSpaceSpec& spec,
                   bool skewed, uint64_t seed)
    : name_(std::move(name)),
      skewed_(skewed),
      seed_(seed),
      space_(spec),
      v_shape_(space_, {tce::RangeKind::kVirt, tce::RangeKind::kVirt,
                        tce::RangeKind::kVirt, tce::RangeKind::kVirt}),
      t_shape_(space_, {tce::RangeKind::kVirt, tce::RangeKind::kVirt,
                        tce::RangeKind::kOcc, tce::RangeKind::kOcc}),
      r_shape_(space_,
               {tce::RangeKind::kVirt, tce::RangeKind::kVirt,
                tce::RangeKind::kOcc, tce::RangeKind::kOcc},
               true, true) {}

Workload::~Workload() = default;

void Workload::prepare() {
  Rng rng(seed_);
  v_data_ = random_vector(v_shape_.ga_size(), rng);
  t_data_ = random_vector(t_shape_.ga_size(), rng);

  Instance inst(v_shape_, t_shape_, r_shape_);
  scatter(inst);
  inst.plan = inspect();
  const auto t0 = Clock::now();
  tce::execute_reference(inst.plan, inst.storage);
  reference_ms_ = ms_between(t0, Clock::now());
  reference_.resize(static_cast<size_t>(r_shape_.ga_size()));
  inst.r_ga.get(0, inst.r_ga.size(), reference_.data());
  tol_ = kRelTol * max_abs(reference_);
  result_.resize(reference_.size());

  const tce::PlanStats st = inst.plan.stats();
  flops_ = st.total_flops;
  const tce::GemmOp& g = inst.plan.chains.front().gemms.front();
  shape_ = {g.transa, g.transb, static_cast<size_t>(g.m),
            static_cast<size_t>(g.n), static_cast<size_t>(g.k), g.alpha};
  num_chains_ = st.num_chains;
  num_gemms_ = st.num_gemms;
}

SetupTimes Workload::setup(bool traced) {
  SetupTimes s;
  const auto t0 = Clock::now();
  inst_ = std::make_unique<Instance>(v_shape_, t_shape_, r_shape_);
  scatter(*inst_);

  auto t1 = Clock::now();
  inst_->plan = inspect();
  auto t2 = Clock::now();
  s.inspect_ms = ms_between(t1, t2);

  tce::PtgExecOptions opts;
  opts.variant = tce::VariantConfig::v5();
  opts.workers_per_rank = kWorkersPerRank;
  opts.policy = ptg::SchedPolicy::kPriority;
  opts.enable_tracing = traced;
  opts.enable_stealing = skewed_;
  tce::TemplateKey key;
  key.subroutine = name_;
  key.tile_fingerprint = tce::fingerprint_tile_space(space_.spec());
  key.variant = tce::variant_signature(opts.variant);
  key.nranks = kRanks;
  inst_->tpl = inst_->cache.get_or_build(key, inst_->plan,
                                         inst_->storage.stores(), opts.variant);
  t1 = Clock::now();
  s.template_build_ms = ms_between(t2, t1);

  inst_->session =
      std::make_unique<tce::PtgSession>(inst_->cluster, inst_->tpl, opts);
  t2 = Clock::now();
  s.session_start_ms = ms_between(t1, t2);

  const OpResult first = run_op();
  s.first_submit_ms = first.wall_ms;
  s.error = first.error;
  s.total_s = (ms_between(t0, t2) + first.wall_ms) / 1e3;
  return s;
}

void Workload::teardown() { inst_.reset(); }

vc::Cluster& Workload::cluster() { return inst_->cluster; }

OpResult Workload::run_op() {
  OpResult r;
  inst_->r_ga.zero();
  const vc::FabricStats f0 = inst_->cluster.fabric().stats();
  const auto t0 = Clock::now();
  try {
    const auto& res = inst_->session->submit(inst_->storage.stores());
    r.wall_ms = ms_between(t0, Clock::now());
    const vc::FabricStats f1 = inst_->cluster.fabric().stats();
    r.messages = f1.messages_sent - f0.messages_sent;
    r.bytes = f1.bytes_sent - f0.bytes_sent;
    uint64_t executed = 0, expected = 0;
    for (const tce::PtgExecResult& x : res) {
      if (x.killed) {
        r.error = "a rank was killed";
        continue;
      }
      executed += x.tasks_executed;
      expected += x.expected_tasks;
      r.remote_activations += x.remote_activations;
      r.sched_steals += x.sched.steals;
      r.sched_steal_attempts += x.sched.steal_attempts;
      r.sched_contended += x.sched.contended_pushes + x.sched.contended_pops;
      r.steal_requests += x.steal.requests_sent;
      r.tasks_migrated += x.steal.tasks_migrated_in;
      if (!x.trace.empty()) {
        r.trace.append(x.trace);
        r.class_names = x.class_names;
      }
    }
    tasks_ = expected;
    if (executed != expected) {
      r.error = "executed " + std::to_string(executed) + " tasks, expected " +
                std::to_string(expected);
    }
  } catch (const std::exception& e) {
    r.wall_ms = ms_between(t0, Clock::now());
    r.error = e.what();
    return r;
  }
  if (!r.error.empty()) return r;
  inst_->r_ga.get(0, inst_->r_ga.size(), result_.data());
  r.error = compare(result_, reference_, tol_);
  return r;
}

std::string Workload::describe() const {
  const tce::TileSpaceSpec& sp = space_.spec();
  return name_ + ": t2_7 v5 priority, occ " + std::to_string(sp.n_occ_alpha) +
         "/" + std::to_string(sp.n_occ_beta) + " virt " +
         std::to_string(sp.n_virt_alpha) + "/" +
         std::to_string(sp.n_virt_beta) + " tile " +
         std::to_string(sp.tile_size) + ", " + std::to_string(num_chains_) +
         " chains, " + std::to_string(num_gemms_) + " GEMMs of " +
         std::to_string(shape_.m) + "x" + std::to_string(shape_.n) + "x" +
         std::to_string(shape_.k) + " (" + shape_.transa + shape_.transb +
         ")" +
         (skewed_ ? ", skewed plan, inter-node stealing on"
                  : ", stealing off");
}

tce::ChainPlan Workload::inspect() const {
  tce::ChainPlan plan =
      tce::inspect_t2_7(space_, {&v_shape_, &t_shape_, &r_shape_});
  if (!skewed_) return plan;
  tce::ImbalanceSpec spec;
  spec.nranks = kRanks;
  spec.hot_ranks = {0};
  return tce::make_skewed_plan(plan, spec);
}

void Workload::scatter(Instance& inst) const {
  inst.v_ga.put(0, inst.v_ga.size(), v_data_.data());
  inst.t_ga.put(0, inst.t_ga.size(), t_data_.data());
}

std::vector<std::string> workload_names() {
  return {"t2_7_coarse", "t2_7_fine", "t2_7_skewed"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed) {
  // coarse and fine are the same 124-chain / 3,008-GEMM DAG at two grains:
  // 64x64x64 GEMMs (kernel-bound) and 4x4x4 GEMMs (runtime-bound).
  if (name == "t2_7_coarse") {
    return std::make_unique<Workload>(name, t27_spec(16, 32, 8), false, seed);
  }
  if (name == "t2_7_fine") {
    return std::make_unique<Workload>(name, t27_spec(4, 8, 2), false, seed);
  }
  if (name == "t2_7_skewed") {
    return std::make_unique<Workload>(name, t27_spec(16, 32, 8), true, seed);
  }
  return nullptr;
}

}  // namespace perfbench
