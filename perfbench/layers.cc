#include "layers.h"

#include <algorithm>
#include <atomic>

#include "alloc_count.h"

namespace perfbench {
namespace {

// Every kTimeStride-th call of a seam is timed; the others are only
// counted. Span-sampled calls are always timed.
constexpr std::uint64_t kTimeStride = 8;
// Span sample: tasks whose index is a multiple of kSpanTaskStride, and
// every kSpanDecideStride-th decide() of a run.
constexpr std::int64_t kSpanTaskStride = 1024;
constexpr std::uint64_t kSpanDecideStride = 4096;
// Spans one replication keeps at most. The buffer is reserved before the
// replication starts, so recording never allocates inside a timed call.
constexpr std::size_t kSpanCap = 8192;

std::atomic<std::uint64_t> g_next_span{1};
std::int64_t g_clock_overhead_ns = 0;
double g_scope_overhead_ns = 0.0;

/// The calling thread's view of the replication it is running.
struct ThreadState {
  RepLayers* rep = nullptr;
  std::vector<Span>* spans = nullptr;  ///< null when spans are not kept
  std::uint64_t rep_span = 0;
  std::uint64_t run_span = 0;  ///< 0 outside a run
  bool in_run = false;
  std::uint64_t decide_ordinal = 0;
};
thread_local ThreadState t_state;

bool has_room(const ThreadState& state) {
  return state.spans != nullptr && state.spans->size() < kSpanCap;
}

const char* seam_name(Seam seam) {
  switch (seam) {
    case Seam::kMake: return "redundancy.make";
    case Seam::kDecide: return "redundancy.decide";
    case Seam::kReset: return "redundancy.reset";
    case Seam::kSelect: return "policy.select";
    case Seam::kAdmit: return "policy.admit";
    case Seam::kHook: return "policy.hook";
    case Seam::kReport: return "fault.report";
    case Seam::kLatency: return "fault.latency";
    case Seam::kWorkload: return "workload.call";
  }
  return "unknown";
}

/// Fresh process-unique span id.
std::uint64_t next_span_id() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void calibrate() {
  std::vector<std::int64_t> pairs(2001);
  for (std::int64_t& pair : pairs) {
    const std::int64_t start = now_ns();
    pair = now_ns() - start;
  }
  std::nth_element(pairs.begin(), pairs.begin() + 1000, pairs.end());
  g_clock_overhead_ns = pairs[1000];

  // The cost of one SeamScope around nothing, at the real timing mix, on a
  // throwaway replication record; the best of a few rounds.
  RepLayers scratch;
  t_state = ThreadState{};
  t_state.rep = &scratch;
  t_state.in_run = true;
  constexpr int kCalls = 1 << 16;
  double best = 0.0;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < kCalls; ++i) {
      const SeamScope scope(Seam::kHook, -1);
    }
    const double per_call =
        static_cast<double>(now_ns() - start) / static_cast<double>(kCalls);
    best = round == 0 ? per_call : std::min(best, per_call);
  }
  t_state = ThreadState{};
  g_scope_overhead_ns = best;
}

std::int64_t clock_overhead_ns() { return g_clock_overhead_ns; }

double scope_overhead_ns() { return g_scope_overhead_ns; }

BatchLayers::BatchLayers(bool keep_spans)
    : keep_spans_(keep_spans), root_span_(next_span_id()) {}

void BatchLayers::deposit(const RepLayers& rep, std::vector<Span>&& spans) {
  const std::lock_guard<std::mutex> lock(mutex_);
  reps_.push_back(rep);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

RepScope::RepScope(BatchLayers* batch, std::uint64_t rep) : batch_(batch) {
  if (batch_ == nullptr) return;
  layers_.rep = static_cast<std::uint32_t>(rep);
  if (batch_->keep_spans()) spans_.reserve(kSpanCap + 2);
  id_ = next_span_id();
  t_state = ThreadState{};
  t_state.rep = &layers_;
  t_state.spans = batch_->keep_spans() ? &spans_ : nullptr;
  t_state.rep_span = id_;
  start_ns_ = now_ns();
}

RepScope::~RepScope() {
  if (batch_ == nullptr) return;
  const std::int64_t end = now_ns();
  layers_.rep_ns = end - start_ns_;
  if (t_state.spans != nullptr) {
    spans_.push_back(Span{id_, batch_->root_span(), "exp.replication",
                          layers_.rep, -1, start_ns_, end});
  }
  t_state = ThreadState{};
  batch_->deposit(layers_, std::move(spans_));
}

RunScope::RunScope(const char* name)
    : name_(name), active_(t_state.rep != nullptr) {
  if (!active_) return;
  ThreadState& state = t_state;
  state.in_run = true;
  state.decide_ordinal = 0;
  parent_ = state.rep_span;
  id_ = next_span_id();
  state.run_span = id_;
  start_allocs_ = alloc::thread_count();
  start_ns_ = now_ns();
}

RunScope::~RunScope() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadState& state = t_state;
  state.rep->run_ns += end - start_ns_;
  state.rep->run_allocs += alloc::thread_count() - start_allocs_;
  state.in_run = false;
  state.run_span = 0;
  if (state.spans != nullptr) {
    state.spans->push_back(
        Span{id_, parent_, name_, state.rep->rep, -1, start_ns_, end});
  }
}

SeamScope::SeamScope(Seam seam, std::int64_t task) : seam_(seam), task_(task) {
  ThreadState& state = t_state;
  if (state.rep == nullptr) return;
  SeamTable& table = state.in_run ? state.rep->in_run : state.rep->outside;
  stats_ = &table[static_cast<std::size_t>(seam)];
  if (has_room(state)) {
    span_ = seam == Seam::kDecide
                ? state.decide_ordinal++ % kSpanDecideStride == 0
                : task >= 0 && task % kSpanTaskStride == 0;
  }
  timed_ = span_ || stats_->calls % kTimeStride == 0;
  ++stats_->calls;
  start_allocs_ = alloc::thread_count();
  if (timed_) start_ns_ = now_ns();
}

SeamScope::~SeamScope() {
  if (stats_ == nullptr) return;
  const std::int64_t end = timed_ ? now_ns() : 0;
  stats_->allocs += alloc::thread_count() - start_allocs_;
  if (!timed_) return;
  ++stats_->timed;
  stats_->timed_ns +=
      std::max<std::int64_t>(0, end - start_ns_ - g_clock_overhead_ns);
  if (span_) {
    ThreadState& state = t_state;
    state.spans->push_back(
        Span{next_span_id(),
             state.run_span != 0 ? state.run_span : state.rep_span,
             seam_name(seam_), state.rep->rep, task_, start_ns_, end});
  }
}

void SeamScope::note_decode_rejects(std::int32_t rejects) {
  if (t_state.rep != nullptr && rejects > 0) {
    t_state.rep->decode_rejects += static_cast<std::uint64_t>(rejects);
  }
}

void SeamScope::note_wrapper_allocs(std::uint64_t allocs) {
  if (t_state.rep != nullptr && t_state.in_run) {
    t_state.rep->wrapper_allocs += allocs;
  }
}

// --- Seam wrappers ---------------------------------------------------------

namespace {

namespace red = smartred::redundancy;

class TracedStrategy final : public red::RedundancyStrategy {
 public:
  explicit TracedStrategy(std::unique_ptr<red::RedundancyStrategy> inner)
      : inner_(std::move(inner)) {}

  red::Decision decide(std::span<const red::Vote> votes) override {
    const SeamScope scope(Seam::kDecide, -1);
    const red::Decision decision = inner_->decide(votes);
    SeamScope::note_decode_rejects(decision.decode_rejects);
    return decision;
  }

  void reset() override {
    const SeamScope scope(Seam::kReset, -1);
    inner_->reset();
  }

 private:
  std::unique_ptr<red::RedundancyStrategy> inner_;
};

std::int64_t task_id(std::uint64_t task) {
  return static_cast<std::int64_t>(task);
}

}  // namespace

std::unique_ptr<red::RedundancyStrategy> TracedFactory::make() const {
  std::unique_ptr<red::RedundancyStrategy> inner;
  {
    const SeamScope scope(Seam::kMake, -1);
    inner = inner_.make();
  }
  const std::uint64_t before = alloc::thread_count();
  auto wrapped = std::make_unique<TracedStrategy>(std::move(inner));
  SeamScope::note_wrapper_allocs(alloc::thread_count() - before);
  return wrapped;
}

std::optional<red::NodeId> TracedPolicy::select(
    const smartred::dca::AssignContext& context,
    const smartred::dca::NodePool& pool, smartred::rng::Stream& rng) {
  const SeamScope scope(Seam::kSelect, task_id(context.task));
  return inner_->select(context, pool, rng);
}

bool TracedPolicy::admit(const smartred::dca::AssignContext& context,
                         red::NodeId client) {
  const SeamScope scope(Seam::kAdmit, task_id(context.task));
  return inner_->admit(context, client);
}

void TracedPolicy::bind(const smartred::dca::NodePool& pool) {
  const SeamScope scope(Seam::kHook, -1);
  inner_->bind(pool);
}

void TracedPolicy::on_join(red::NodeId node) {
  const SeamScope scope(Seam::kHook, -1);
  inner_->on_join(node);
}

void TracedPolicy::on_leave(red::NodeId node) {
  const SeamScope scope(Seam::kHook, -1);
  inner_->on_leave(node);
}

void TracedPolicy::on_dispatch(red::NodeId node,
                               const smartred::dca::AssignContext& context) {
  const SeamScope scope(Seam::kHook, task_id(context.task));
  inner_->on_dispatch(node, context);
}

void TracedPolicy::on_complete(red::NodeId node, bool on_time) {
  const SeamScope scope(Seam::kHook, -1);
  inner_->on_complete(node, on_time);
}

void TracedPolicy::on_quarantine(red::NodeId node) {
  const SeamScope scope(Seam::kHook, -1);
  inner_->on_quarantine(node);
}

void TracedPolicy::on_readmit(red::NodeId node) {
  const SeamScope scope(Seam::kHook, -1);
  inner_->on_readmit(node);
}

void TracedPolicy::on_task_decided(std::span<const red::Vote> votes,
                                   red::ResultValue accepted) {
  const SeamScope scope(Seam::kHook, -1);
  inner_->on_task_decided(votes, accepted);
}

void TracedPolicy::on_task_settled(std::uint64_t task) {
  const SeamScope scope(Seam::kHook, task_id(task));
  inner_->on_task_settled(task);
}

void TracedPolicy::reset() {
  const SeamScope scope(Seam::kHook, -1);
  inner_->reset();
}

red::ResultValue TracedFailures::report(red::NodeId node, std::uint64_t task,
                                        red::ResultValue correct,
                                        smartred::rng::Stream& rng) {
  const SeamScope scope(Seam::kReport, task_id(task));
  return inner_.report(node, task, correct, rng);
}

double TracedLatency::sample(red::NodeId node, std::uint64_t task,
                             smartred::rng::Stream& rng) {
  const SeamScope scope(Seam::kLatency, task_id(task));
  return inner_.sample(node, task, rng);
}

std::uint64_t TracedWorkload::task_count() const {
  const SeamScope scope(Seam::kWorkload, -1);
  return inner_.task_count();
}

red::ResultValue TracedWorkload::correct_value(std::uint64_t task) const {
  const SeamScope scope(Seam::kWorkload, task_id(task));
  return inner_.correct_value(task);
}

double TracedWorkload::job_work(std::uint64_t task) const {
  const SeamScope scope(Seam::kWorkload, task_id(task));
  return inner_.job_work(task);
}

}  // namespace perfbench
