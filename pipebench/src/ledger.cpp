#include "ledger.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "cfg/cfg.h"
#include "core/attack_graph.h"
#include "core/bb_profile.h"
#include "core/cst.h"
#include "core/dtw.h"
#include "core/relevant.h"
#include "core/scan_index.h"
#include "cpu/interpreter.h"
#include "isa/normalize.h"
#include "support/events.h"

namespace pipebench {

namespace core = scag::core;

std::string_view layer_name(Layer layer) {
  switch (layer) {
    case Layer::kTarget: return "bench.target";
    case Layer::kAssemble: return "isa.assemble";
    case Layer::kCpuRun: return "cpu.run";
    case Layer::kCfgBuild: return "cfg.build";
    case Layer::kAggregate: return "core.bb_profile.aggregate";
    case Layer::kRelevant: return "core.relevant.identify";
    case Layer::kAttackGraph: return "core.attack_graph.build";
    case Layer::kNormalize: return "isa.normalize";
    case Layer::kCst: return "core.cst.measure";
    case Layer::kModelBuild: return "core.model.build";
    case Layer::kCompileTarget: return "core.compiled.compile_target";
    case Layer::kScan: return "core.scan.scan";
    case Layer::kCount: break;
  }
  return "?";
}

TargetCounts& TargetCounts::operator+=(const TargetCounts& o) {
  retired += o.retired;
  cycles += o.cycles;
  l1d_load_miss += o.l1d_load_miss;
  llc_load_miss += o.llc_load_miss;
  blocks += o.blocks;
  relevant += o.relevant;
  graph_nodes += o.graph_nodes;
  cst_calls += o.cst_calls;
  cst_accesses += o.cst_accesses;
  pairs += o.pairs;
  exact += o.exact;
  kim_pruned += o.kim_pruned;
  envelope_pruned += o.envelope_pruned;
  early_abandoned += o.early_abandoned;
  return *this;
}

core::CstBbs replay_model(const scag::isa::Program& program,
                          const core::ModelConfig& config, SpanBuffer& spans,
                          TargetCounts& counts) {
  using scag::trace::HpcEvent;
  const scag::cpu::RunResult run = spans.time(Layer::kCpuRun, [&] {
    scag::cpu::Interpreter interp(config.exec);
    return interp.run(program);
  });
  const scag::trace::ExecutionProfile& profile = run.profile;
  const scag::cfg::Cfg cfg = spans.time(
      Layer::kCfgBuild, [&] { return scag::cfg::Cfg::build(program); });
  const std::vector<core::BbStats> stats = spans.time(
      Layer::kAggregate, [&] { return core::aggregate_by_block(cfg, profile); });
  const core::RelevantResult rel = spans.time(Layer::kRelevant, [&] {
    return core::identify_relevant_blocks(stats, config.relevant);
  });
  const core::AttackGraph graph = spans.time(Layer::kAttackGraph, [&] {
    return core::build_attack_graph(cfg, stats, rel.relevant, config.graph);
  });
  counts.retired = profile.retired;
  counts.cycles = profile.cycles;
  counts.l1d_load_miss = profile.totals[HpcEvent::kL1dLoadMiss];
  counts.llc_load_miss = profile.totals[HpcEvent::kLlcLoadMiss];
  counts.blocks = cfg.num_blocks();
  counts.relevant = rel.relevant.size();
  counts.graph_nodes = graph.node_count();

  // Flatten by first-execution timestamp, as ModelBuilder does.
  std::vector<scag::cfg::BlockId> ordered;
  for (scag::cfg::BlockId id = 0; id < cfg.num_blocks(); ++id)
    if (graph.in_graph[id] && stats[id].executed()) ordered.push_back(id);
  std::sort(ordered.begin(), ordered.end(),
            [&stats](scag::cfg::BlockId a, scag::cfg::BlockId b) {
              if (stats[a].first_cycle != stats[b].first_cycle)
                return stats[a].first_cycle < stats[b].first_cycle;
              return a < b;
            });
  core::CstBbs sequence;
  sequence.reserve(ordered.size());
  counts.cst_calls = ordered.size();
  counts.cst_accesses = 0;
  for (scag::cfg::BlockId id : ordered) {
    core::CstBbsElement elem;
    elem.block = id;
    elem.first_cycle = stats[id].first_cycle;
    spans.time(Layer::kNormalize, [&] {
      const std::vector<scag::isa::Instruction> instrs = cfg.instructions_of(id);
      elem.norm_instrs = scag::isa::normalize(instrs);
      elem.sem_tokens = scag::isa::semantic_tokens(instrs);
    });
    elem.cst = spans.time(Layer::kCst, [&] {
      return core::measure_cst(stats[id].accesses, config.cst);
    });
    counts.cst_accesses += stats[id].accesses.size();
    sequence.push_back(std::move(elem));
  }
  return sequence;
}

core::Detection replay_scan(const core::Detector& detector,
                            const core::CstBbs& sequence, SpanBuffer& spans,
                            TargetCounts& counts) {
  const core::CompiledRepository& crepo = detector.compiled_repository();
  const std::size_t m = detector.repository_size();
  if (m == 0) throw std::logic_error("replay_scan: empty repository");
  scag::support::events::ScanScope scope(sequence.size());
  const core::CompiledTarget target = spans.time(
      Layer::kCompileTarget, [&] { return crepo.compile_target(sequence); });
  return spans.time(Layer::kScan, [&] {
    core::ElementDistanceMemo memo(target.unique_elements,
                                   crepo.unique_elements());
    core::ElementDistanceMemo::Stats memo_stats;
    core::CascadeStats cstats;
    const std::vector<std::uint32_t> order = detector.scan_index().scan_order(
        target.seq.features, target.seq.size());
    const std::vector<core::CascadeScore> cascade =
        core::cascade_scan(target, crepo, order, memo,
                           detector.scan_dtw_config(), &cstats, &memo_stats);
    core::flush_memo_stats(memo_stats);
    std::vector<core::ModelScore> scores;
    scores.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      core::ModelScore s;
      s.model_name = detector.model_name(j);
      s.family = detector.model_family(j);
      s.score = cascade[j].score;
      s.pruned = cascade[j].stage != core::CascadeStage::kExact;
      scores.push_back(std::move(s));
    }
    counts.pairs = cstats.pairs;
    counts.exact = cstats.exact;
    counts.kim_pruned = cstats.kim_pruned;
    counts.envelope_pruned = cstats.envelope_pruned;
    counts.early_abandoned = cstats.early_abandoned;
    return core::Detector::finalize(std::move(scores), detector.threshold());
  });
}

core::Detection exhaustive_oracle(const std::vector<core::AttackModel>& models,
                                  const core::CstBbs& target,
                                  const core::DtwConfig& dtw,
                                  double threshold) {
  std::vector<core::ModelScore> scores;
  scores.reserve(models.size());
  for (const core::AttackModel& model : models) {
    core::ModelScore s;
    s.model_name = model.name;
    s.family = model.family;
    s.score = core::similarity(target, model.sequence, dtw);
    scores.push_back(std::move(s));
  }
  return core::Detector::finalize(std::move(scores), threshold);
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_state(const core::CacheState& a, const core::CacheState& b) {
  return same_bits(a.ao, b.ao) && same_bits(a.io, b.io);
}

}  // namespace

bool same_sequence(const core::CstBbs& a, const core::CstBbs& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::CstBbsElement& x = a[i];
    const core::CstBbsElement& y = b[i];
    if (x.block != y.block || x.first_cycle != y.first_cycle ||
        x.norm_instrs != y.norm_instrs || x.sem_tokens != y.sem_tokens ||
        !same_state(x.cst.before, y.cst.before) ||
        !same_state(x.cst.after, y.cst.after))
      return false;
  }
  return true;
}

bool same_detection(const core::Detection& a, const core::Detection& b) {
  if (a.verdict != b.verdict || !same_bits(a.best_score, b.best_score) ||
      a.scores.size() != b.scores.size())
    return false;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    const core::ModelScore& x = a.scores[i];
    const core::ModelScore& y = b.scores[i];
    if (x.model_name != y.model_name || x.family != y.family ||
        !same_bits(x.score, y.score) || x.pruned != y.pruned)
      return false;
  }
  return true;
}

bool same_verdict(const core::Detection& oracle, const core::Detection& got) {
  if (oracle.verdict != got.verdict ||
      !same_bits(oracle.best_score, got.best_score) ||
      oracle.scores.size() != got.scores.size())
    return false;
  return oracle.scores.empty() ||
         (oracle.scores.front().model_name == got.scores.front().model_name &&
          oracle.scores.front().family == got.scores.front().family);
}

bool same_program(const scag::isa::Program& a, const scag::isa::Program& b) {
  return a.entry() == b.entry() && a.instructions() == b.instructions() &&
         a.initial_data() == b.initial_data();
}

void Ledger::add(const std::vector<Span>& spans) {
  for (const Span& s : spans)
    total_ns_[static_cast<std::size_t>(s.layer)] += s.end_ns - s.begin_ns;
}

double Ledger::per_item_us(Layer layer, std::uint64_t items) const {
  return items == 0 ? 0.0
                    : static_cast<double>(total_ns(layer)) / 1e3 /
                          static_cast<double>(items);
}

}  // namespace pipebench
