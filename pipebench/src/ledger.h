// The traced side of the ledger: in-memory spans recorded around calls
// into each layer's public functions, the layer-by-layer replay of the
// modeling and scan pipeline those spans time, the exact per-target
// counts the replay collects, and the equality checks that prove the
// replay is the program the untraced run measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/detector.h"
#include "core/model.h"
#include "isa/program.h"

namespace pipebench {

/// Layers the traced run times, named after the repository's modules.
enum class Layer : std::uint8_t {
  kTarget,         // one lane's whole work item for one target
  kAssemble,       // isa::assemble
  kCpuRun,         // cpu::Interpreter::run (cache hierarchy included)
  kCfgBuild,       // cfg::Cfg::build
  kAggregate,      // core::aggregate_by_block
  kRelevant,       // core::identify_relevant_blocks
  kAttackGraph,    // core::build_attack_graph
  kNormalize,      // isa::normalize + isa::semantic_tokens, per element
  kCst,            // core::measure_cst, per element
  kModelBuild,     // core::ModelBuilder::build (the reference)
  kCompileTarget,  // core::CompiledRepository::compile_target
  kScan,           // triage order + cascade + finalize
  kCount,
};

/// Span name as reported, e.g. "cpu.run".
std::string_view layer_name(Layer layer);

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::uint64_t target = 0;  // shared by every span of one target
  Layer layer = Layer::kTarget;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Spans of one target, filled by the one lane that works on it.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint64_t target) : target_(target) {}

  template <class F>
  decltype(auto) time(Layer layer, F&& fn) {
    const std::uint64_t begin = now_ns();
    struct Close {
      SpanBuffer* self;
      Layer layer;
      std::uint64_t begin;
      ~Close() { self->spans.push_back({self->target_, layer, begin, now_ns()}); }
    } close{this, layer, begin};
    return fn();
  }

  std::vector<Span> spans;

 private:
  std::uint64_t target_;
};

/// Exact, seed-determined counts of one target's trip through the layers.
struct TargetCounts {
  std::uint64_t retired = 0;
  std::uint64_t cycles = 0;
  std::uint64_t l1d_load_miss = 0;
  std::uint64_t llc_load_miss = 0;
  std::uint64_t blocks = 0;
  std::uint64_t relevant = 0;
  std::uint64_t graph_nodes = 0;
  std::uint64_t cst_calls = 0;
  std::uint64_t cst_accesses = 0;
  std::uint64_t pairs = 0;
  std::uint64_t exact = 0;
  std::uint64_t kim_pruned = 0;
  std::uint64_t envelope_pruned = 0;
  std::uint64_t early_abandoned = 0;

  TargetCounts& operator+=(const TargetCounts& o);
};

/// ModelBuilder::build, one public layer call at a time.
scag::core::CstBbs replay_model(const scag::isa::Program& program,
                                const scag::core::ModelConfig& config,
                                SpanBuffer& spans, TargetCounts& counts);

/// Detector::scan's indexed compiled path, one public layer call at a
/// time (compile_target is its own span).
scag::core::Detection replay_scan(const scag::core::Detector& detector,
                                  const scag::core::CstBbs& sequence,
                                  SpanBuffer& spans, TargetCounts& counts);

/// The differential oracle: exhaustive string-kernel similarity against
/// every text model, reduced by Detector::finalize.
scag::core::Detection exhaustive_oracle(
    const std::vector<scag::core::AttackModel>& models,
    const scag::core::CstBbs& target, const scag::core::DtwConfig& dtw,
    double threshold);

/// Element-wise, doubles compared as bit patterns.
bool same_sequence(const scag::core::CstBbs& a, const scag::core::CstBbs& b);
/// Every entry: name, family, score bits, pruned flag; verdict and best.
bool same_detection(const scag::core::Detection& a,
                    const scag::core::Detection& b);
/// The cascade contract: verdict, best-score bits, and winning model.
bool same_verdict(const scag::core::Detection& oracle,
                  const scag::core::Detection& got);
/// Instructions, entry point and data image.
bool same_program(const scag::isa::Program& a, const scag::isa::Program& b);

/// Per-layer span totals.
class Ledger {
 public:
  void add(const std::vector<Span>& spans);
  std::uint64_t total_ns(Layer layer) const {
    return total_ns_[static_cast<std::size_t>(layer)];
  }
  /// Mean microseconds per `items`.
  double per_item_us(Layer layer, std::uint64_t items) const;

 private:
  std::uint64_t total_ns_[static_cast<std::size_t>(Layer::kCount)] = {};
};

}  // namespace pipebench
