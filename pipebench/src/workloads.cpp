#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "attacks/registry.h"
#include "core/batch_detector.h"
#include "core/store.h"
#include "corpus.h"
#include "eval/experiments.h"
#include "isa/assembler.h"
#include "isa/export.h"
#include "ledger.h"
#include "support/events.h"
#include "support/thread_pool.h"

namespace pipebench {

namespace core = scag::core;
namespace events = scag::support::events;
using core::Family;

namespace {

enum class Kind { kPipelineMixed, kScanRepo48, kSingleAsm };

constexpr std::size_t kLanes = 4;
constexpr std::uint64_t kRepositorySeed = 2024;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kWindows = 3;
/// Targets per warm-up pass, rounded to whole batches (at least one).
constexpr std::size_t kWarmupTargets = 64;
constexpr int kMaxWarmupPasses = 8;
constexpr double kSteadyTolerance = 0.10;
/// Failed operations echoed to stderr in full; the rest are only counted.
constexpr std::uint64_t kMaxReportedFailures = 5;

Kind parse_kind(std::string_view name) {
  if (name == "pipeline-mixed") return Kind::kPipelineMixed;
  if (name == "scan-repo48") return Kind::kScanRepo48;
  if (name == "single-asm") return Kind::kSingleAsm;
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

/// Distinct targets per seed and targets per closed-loop batch (single-asm
/// scans one target at a time; its "batch" is only the loop's check-in
/// granularity).
struct Shape {
  std::size_t targets;
  std::size_t batch;
  std::size_t models;  // scan-repo48 repository size
};

Shape shape_of(Kind kind, bool smoke) {
  if (smoke) return {14, 7, 8};
  // Batch workloads: ~60-110 ms batches on 4 lanes, long enough that a
  // host stall of a few milliseconds on one lane moves a batch by a small
  // share, short enough that each third of a 30 s run holds a hundred or
  // so latency samples.
  switch (kind) {
    case Kind::kPipelineMixed: return {896, 128, 48};
    case Kind::kScanRepo48: return {896, 896, 48};
    case Kind::kSingleAsm: break;
  }
  return {896, 16, 48};
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Models one fixed PoC before anything seeded is allocated. The library
/// creates its globals (failpoint sites, metric counters) on first use,
/// and the lanes update some of them on every simulated instruction;
/// creating them first puts them at the same heap addresses for every
/// seed, so how their cache lines fall stops depending on the corpus.
void prime_globals() {
  const core::ModelBuilder builder(scag::eval::experiment_model_config());
  const scag::attacks::PocSpec& spec = scag::attacks::all_pocs().front();
  builder.build(spec.build(scag::attacks::PocConfig{}));
}

class Bench {
 public:
  Bench(Kind kind, const Options& options)
      : kind_(kind),
        opt_(options),
        shape_(shape_of(kind, options.smoke)),
        lanes_(kind == Kind::kSingleAsm ? 1 : kLanes),
        store_path_(options.work_dir + "/repository.store"),
        journal_path_(options.work_dir + "/journal.jsonl") {}

  ~Bench() { events::EventJournal::global().stop(); }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  Result run() {
    std::vector<double> setup_s;
    for (int k = 0; k < kSetupRepeats; ++k) setup_s.push_back(set_up());
    compute_references();
    if (kind_ == Kind::kSingleAsm) start_journal();
    timed_run();
    if (kind_ == Kind::kSingleAsm) {
      events::EventJournal::global().stop();
      journal_ = events::EventJournal::global().stats();
      if (journal_.emitted != journal_.written + journal_.dropped)
        result_.errors.push_back("event journal lost events: emitted != "
                                 "written + dropped");
    }
    finish_checks();
    if (opt_.trace) {
      report_traced();
    } else {
      report_untraced(setup_s);
    }
    return std::move(result_);
  }

 private:
  std::size_t num_targets() const { return corpus_.size(); }
  std::size_t num_batches() const {
    return (num_targets() + shape_.batch - 1) / shape_.batch;
  }
  std::size_t batch_begin(std::size_t b) const { return b * shape_.batch; }
  std::size_t batch_end(std::size_t b) const {
    return std::min(num_targets(), (b + 1) * shape_.batch);
  }
  const core::ModelConfig& model_config() const {
    return detector_->builder().config();
  }

  void start_journal() {
    events::JournalConfig config;
    config.path = journal_path_;
    events::EventJournal::global().start(config);
  }

  /// One complete set-up: corpus, repository enroll/pack/open, target
  /// preparation, warm-up. Returns its wall time in seconds.
  double set_up() {
    const std::uint64_t start = now_ns();
    batch_.reset();
    detector_.reset();
    corpus_ = make_corpus(shape_.targets, opt_.seed);
    const core::ModelBuilder builder(scag::eval::experiment_model_config());
    switch (kind_) {
      case Kind::kPipelineMixed:
        models_ = scag::eval::make_scaguard({Family::kFlushReload,
                                             Family::kPrimeProbe,
                                             Family::kSpectreFR,
                                             Family::kSpectrePP})
                      .repository();
        break;
      case Kind::kScanRepo48:
        // The deployed repository is fixed; the seed varies the traffic.
        models_ = expanded_models(shape_.models, kRepositorySeed, builder);
        break;
      case Kind::kSingleAsm:
        models_ = all_poc_models(builder);
        break;
    }
    core::pack_store(store_path_, models_,
                     scag::eval::experiment_dtw_config().distance);
    const std::uint64_t open_start = now_ns();
    detector_ = std::make_unique<core::Detector>(
        scag::eval::experiment_model_config(),
        scag::eval::experiment_dtw_config(), scag::eval::kThreshold);
    detector_->attach_store(core::ModelStore::open(store_path_));
    store_open_us_.push_back(static_cast<double>(now_ns() - open_start) / 1e3);
    detector_->set_use_index(true);
    if (lanes_ > 1) {
      core::BatchConfig config;
      config.threads = lanes_;
      config.index = true;
      batch_ = std::make_unique<core::BatchDetector>(*detector_, config);
    }
    prepare_targets(builder);
    if (kind_ == Kind::kSingleAsm) start_journal();
    warm_up();
    if (kind_ == Kind::kSingleAsm) events::EventJournal::global().stop();
    return seconds_since(start);
  }

  void prepare_targets(const core::ModelBuilder& builder) {
    const std::size_t n = num_targets();
    counts_.assign(n, TargetCounts{});
    batch_programs_.clear();
    batch_sequences_.clear();
    texts_.clear();
    switch (kind_) {
      case Kind::kPipelineMixed:
        for (std::size_t b = 0; b < num_batches(); ++b) {
          batch_programs_.emplace_back();
          for (std::size_t i = batch_begin(b); i < batch_end(b); ++i)
            batch_programs_.back().push_back(corpus_[i].program);
        }
        break;
      case Kind::kScanRepo48: {
        std::vector<core::CstBbs> sequences(n);
        pool_.parallel_for(n, [&](std::size_t i) {
          sequences[i] = builder.build(corpus_[i].program).sequence;
        });
        for (std::size_t b = 0; b < num_batches(); ++b)
          batch_sequences_.emplace_back(
              std::make_move_iterator(sequences.begin() + batch_begin(b)),
              std::make_move_iterator(sequences.begin() + batch_end(b)));
        break;
      }
      case Kind::kSingleAsm:
        for (const Target& t : corpus_)
          texts_.push_back(scag::isa::export_assembly(t.program));
        break;
    }
  }

  std::vector<SpanBuffer> span_buffers(std::size_t n) {
    std::vector<SpanBuffer> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.emplace_back(next_span_id_++);
    return out;
  }

  /// Repeats the first kWarmupTargets targets until two consecutive
  /// passes agree on throughput within kSteadyTolerance (at least three
  /// passes, at most kMaxWarmupPasses).
  void warm_up() {
    const std::size_t batches = std::clamp<std::size_t>(
        kWarmupTargets / shape_.batch, 1, num_batches());
    double previous = 0.0;
    for (int pass = 0; pass < kMaxWarmupPasses; ++pass) {
      double seconds = 0.0;
      for (std::size_t b = 0; b < batches; ++b)
        seconds += run_untraced(b, false);
      const double rate = static_cast<double>(batch_end(batches - 1)) / seconds;
      if (pass >= 2 && std::abs(rate - previous) <= kSteadyTolerance * rate)
        break;
      previous = rate;
    }
  }

  /// Untimed references for every distinct target: the text round trip,
  /// ModelBuilder::build, and the exhaustive string-kernel oracle. Traced
  /// runs also replay the modeling layers next to each build, alternating
  /// which goes first, so build time and its layer split are measured
  /// under the same conditions. Runs on the workload's own lane count.
  void compute_references() {
    const std::size_t n = num_targets();
    ref_seq_.assign(n, {});
    oracle_.assign(n, {});
    first_det_.assign(n, std::nullopt);
    replay_det_.assign(n, std::nullopt);
    replay_seq_.assign(n, std::nullopt);
    std::vector<SpanBuffer> spans = span_buffers(n);
    std::vector<char> round_trip_ok(n, 0), replay_ok(n, 1);
    const core::ModelBuilder& builder = detector_->builder();
    auto work = [&](std::size_t i) {
      const Target& t = corpus_[i];
      const std::string text = kind_ == Kind::kSingleAsm
                                   ? texts_[i]
                                   : scag::isa::export_assembly(t.program);
      const scag::isa::Program back = spans[i].time(
          Layer::kAssemble, [&] { return scag::isa::assemble(text, t.name); });
      round_trip_ok[i] = same_program(back, t.program);
      auto build = [&] {
        ref_seq_[i] = spans[i].time(Layer::kModelBuild, [&] {
          return builder.build(t.program).sequence;
        });
      };
      core::CstBbs replayed;
      if (i % 2 == 0) build();
      if (opt_.trace)
        replayed = replay_model(t.program, builder.config(), spans[i],
                                counts_[i]);
      if (i % 2 != 0) build();
      if (opt_.trace) replay_ok[i] = same_sequence(replayed, ref_seq_[i]);
      oracle_[i] = exhaustive_oracle(models_, ref_seq_[i],
                                     detector_->dtw_config(),
                                     detector_->threshold());
    };
    if (lanes_ == 1) {
      for (std::size_t i = 0; i < n; ++i) work(i);
    } else {
      pool_.parallel_for(n, work);
    }
    for (const SpanBuffer& s : spans) check_ledger_.add(s.spans);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& name = corpus_[i].name;
      if (!round_trip_ok[i])
        result_.errors.push_back(
            name + ": exported text does not re-assemble to the same program");
      if (!replay_ok[i])
        result_.errors.push_back(
            name + ": replayed CST-BBS differs from ModelBuilder::build");
      if (kind_ == Kind::kScanRepo48 &&
          !same_sequence(set_up_sequence(i), ref_seq_[i]))
        result_.errors.push_back(
            name + ": set-up CST-BBS differs from ModelBuilder::build");
    }
  }

  const core::CstBbs& set_up_sequence(std::size_t i) const {
    return batch_sequences_[i / shape_.batch][i % shape_.batch];
  }

  /// Runs batch `b` through the public pipeline API, untraced. Returns the
  /// seconds spent inside pipeline calls; with `record`, also keeps the
  /// latency samples and checks every outcome.
  double run_untraced(std::size_t b, bool record) {
    const std::size_t lo = batch_begin(b), hi = batch_end(b);
    std::vector<core::ScanOutcome> outcomes;
    double seconds = 0.0;
    if (kind_ == Kind::kSingleAsm) {
      outcomes.resize(hi - lo);
      for (std::size_t k = 0; k < hi - lo; ++k) {
        const std::uint64_t start = now_ns();
        try {
          const scag::isa::Program program =
              scag::isa::assemble(texts_[lo + k], corpus_[lo + k].name);
          outcomes[k].detection = detector_->scan(program);
        } catch (const std::exception& e) {
          outcomes[k].status = core::ScanStatus::kError;
          outcomes[k].error = e.what();
        }
        const double s = seconds_since(start);
        seconds += s;
        if (record) samples_.push_back({s * 1e3, 1});
      }
    } else {
      const std::uint64_t start = now_ns();
      outcomes = kind_ == Kind::kPipelineMixed
                     ? batch_->scan_programs_outcomes(batch_programs_[b])
                     : batch_->scan_all_outcomes(batch_sequences_[b]);
      seconds = seconds_since(start);
      if (record) samples_.push_back({seconds * 1e3, hi - lo});
    }
    if (record) {
      for (std::size_t k = 0; k < hi - lo; ++k)
        check_outcome(lo + k, outcomes[k]);
    }
    return seconds;
  }

  void fail(const std::string& what) {
    if (++result_.failed <= kMaxReportedFailures)
      std::fprintf(stderr, "pipebench: FAILED %s\n", what.c_str());
  }

  void check_outcome(std::size_t i, const core::ScanOutcome& o) {
    ++result_.attempted;
    if (!o.ok()) return fail(corpus_[i].name + ": " + o.error);
    if (!same_verdict(oracle_[i], o.detection))
      return fail(corpus_[i].name + ": verdict differs from the oracle");
    if (!first_det_[i]) {
      first_det_[i] = o.detection;
    } else if (!same_detection(*first_det_[i], o.detection)) {
      fail(corpus_[i].name + ": detection changed between passes");
    }
  }

  /// Runs batch `b` layer by layer with spans, doing the same work as
  /// run_untraced on the same lanes. Returns its wall time in seconds.
  double run_traced(std::size_t b) {
    const std::size_t lo = batch_begin(b), hi = batch_end(b), n = hi - lo;
    std::vector<SpanBuffer> spans = span_buffers(n);
    std::vector<core::CstBbs> sequences(n);
    std::vector<core::Detection> detections(n);
    std::vector<TargetCounts> counts(counts_.begin() + static_cast<long>(lo),
                                     counts_.begin() + static_cast<long>(hi));
    std::vector<std::string> errors(n);
    auto guarded = [&](std::size_t k, auto&& fn) {
      if (!errors[k].empty()) return;
      try {
        spans[k].time(Layer::kTarget, fn);
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    };
    const std::uint64_t start = now_ns();
    switch (kind_) {
      case Kind::kPipelineMixed:
        pool_.parallel_for(n, [&](std::size_t k) {
          guarded(k, [&] {
            sequences[k] = replay_model(batch_programs_[b][k], model_config(),
                                        spans[k], counts[k]);
          });
        });
        pool_.parallel_for(n, [&](std::size_t k) {
          guarded(k, [&] {
            detections[k] =
                replay_scan(*detector_, sequences[k], spans[k], counts[k]);
          });
        });
        break;
      case Kind::kScanRepo48:
        pool_.parallel_for(n, [&](std::size_t k) {
          guarded(k, [&] {
            detections[k] = replay_scan(*detector_, batch_sequences_[b][k],
                                        spans[k], counts[k]);
          });
        });
        break;
      case Kind::kSingleAsm:
        for (std::size_t k = 0; k < n; ++k) {
          guarded(k, [&] {
            const scag::isa::Program program =
                spans[k].time(Layer::kAssemble, [&] {
                  return scag::isa::assemble(texts_[lo + k],
                                             corpus_[lo + k].name);
                });
            sequences[k] =
                replay_model(program, model_config(), spans[k], counts[k]);
            detections[k] =
                replay_scan(*detector_, sequences[k], spans[k], counts[k]);
          });
        }
        break;
    }
    const double seconds = seconds_since(start);
    traced_s_ += seconds;
    traced_targets_ += n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = lo + k;
      ++result_.attempted;
      for (const Span& s : spans[k].spans)
        if (s.layer == Layer::kTarget)
          traced_busy_ns_ += s.end_ns - s.begin_ns;
      run_ledger_.add(spans[k].spans);
      if (!errors[k].empty()) {
        fail(corpus_[i].name + " (traced): " + errors[k]);
        continue;
      }
      if (!same_verdict(oracle_[i], detections[k])) {
        fail(corpus_[i].name + " (traced): verdict differs from the oracle");
        continue;
      }
      traced_retired_ += counts[k].retired;
      counts_[i] = counts[k];
      if (!replay_det_[i]) {
        replay_det_[i] = std::move(detections[k]);
        if (kind_ != Kind::kScanRepo48)
          replay_seq_[i] = std::move(sequences[k]);
      }
    }
    return seconds;
  }

  /// Closed loop over the corpus batches for opt_.seconds, and at least
  /// one full pass. Traced runs alternate an untraced and a traced pass
  /// of each batch, swapping which goes first, so their wall times pair.
  void timed_run() {
    const std::size_t batches = num_batches();
    const std::uint64_t start = now_ns();
    for (std::size_t done = 0;
         done < batches || seconds_since(start) < opt_.seconds; ++done) {
      const std::size_t b = done % batches;
      if (!opt_.trace) {
        run_untraced(b, true);
      } else if (done % 2 == 0) {
        untraced_paired_s_ += run_untraced(b, true);
        run_traced(b);
      } else {
        run_traced(b);
        untraced_paired_s_ += run_untraced(b, true);
      }
    }
  }

  /// After the timed run: every target was scanned, and in a traced run
  /// the layer-by-layer replay reproduced ModelBuilder::build and the
  /// untraced Detection exactly.
  void finish_checks() {
    for (std::size_t i = 0; i < num_targets(); ++i) {
      const std::string& name = corpus_[i].name;
      if (!first_det_[i]) {
        result_.errors.push_back(name + ": never scanned successfully");
        continue;
      }
      if (!opt_.trace) continue;
      if (!replay_det_[i]) {
        result_.errors.push_back(name + ": never replayed successfully");
        continue;
      }
      const core::CstBbs& replayed = kind_ == Kind::kScanRepo48
                                         ? set_up_sequence(i)
                                         : *replay_seq_[i];
      if (!same_sequence(replayed, ref_seq_[i]))
        result_.errors.push_back(
            name + ": replayed CST-BBS differs from ModelBuilder::build");
      if (!same_detection(*replay_det_[i], *first_det_[i]))
        result_.errors.push_back(
            name + ": replayed scan differs from the untraced Detection");
    }
  }

  /// build_attack_graph on the pinned stress program, through the same
  /// layer replay as the targets: the heavy tail make_corpus leaves out.
  double attack_graph_stress_us() {
    SpanBuffer spans(next_span_id_++);
    TargetCounts counts;
    replay_model(attack_graph_stress_program(), model_config(), spans, counts);
    Ledger ledger;
    ledger.add(spans.spans);
    return ledger.per_item_us(Layer::kAttackGraph, 1);
  }

  void add(std::string name, double value, std::string unit,
           std::string note = {}, bool listed = true) {
    result_.metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note), listed});
  }

  void report_untraced(const std::vector<double>& setup_s) {
    const std::size_t n = num_targets();
    std::size_t right = 0;
    for (std::size_t i = 0; i < n; ++i)
      right += first_det_[i] && first_det_[i]->verdict == corpus_[i].truth;
    // Each timing is the median over kWindows equal, consecutive thirds of
    // the run's samples, so a host stall confined to one third does not
    // move it.
    std::vector<double> rate, p50, p99;
    const std::size_t windows = std::min(kWindows, samples_.size());
    for (std::size_t w = 0; w < windows; ++w) {
      const auto first = samples_.begin() + static_cast<long>(
                                                w * samples_.size() / windows);
      const auto last = samples_.begin() + static_cast<long>(
                                               (w + 1) * samples_.size() / windows);
      std::vector<double> ms;
      double total_ms = 0.0;
      std::uint64_t targets = 0;
      for (auto it = first; it != last; ++it) {
        ms.push_back(it->ms);
        total_ms += it->ms;
        targets += it->targets;
      }
      rate.push_back(static_cast<double>(targets) * 1e3 / total_ms);
      p50.push_back(percentile(ms, 0.50));
      p99.push_back(percentile(ms, 0.99));
    }
    const std::string per_window =
        "median of " + std::to_string(windows) + " windows of ~" +
        std::to_string(samples_.size() / std::max<std::size_t>(1, windows)) +
        (kind_ == Kind::kSingleAsm ? " per-target" : " per-batch") +
        " samples";
    add("targets_per_s", median(rate), "1/s",
        per_window + ", time inside pipeline calls, " +
            std::to_string(lanes_) + " lane(s)");
    add("latency_ms_p50", median(p50), "ms", per_window);
    add("latency_ms_p99", median(p99), "ms", per_window);
    add("accuracy", ratio(right, n), "ratio",
        std::to_string(right) + "/" + std::to_string(n) +
            " distinct targets match ground truth");
    add("setup_s", median(setup_s), "s",
        "median of " + std::to_string(setup_s.size()) + " set-ups");
    add("peak_rss_mb", peak_rss_mb(), "MB");
    add("error_rate", ratio(result_.failed, result_.attempted), "ratio",
        std::to_string(result_.failed) + "/" +
            std::to_string(result_.attempted) + " verdicts failed",
        /*listed=*/false);
  }

  void report_traced() {
    const std::size_t n = num_targets();
    TargetCounts total;
    for (const TargetCounts& c : counts_) total += c;
    const bool asm_on_path = kind_ == Kind::kSingleAsm;
    // scan-repo48 models its targets in set-up, off the timed path; its
    // modeling layers come from the reference phase's replay.
    const bool modeled_off_path = kind_ == Kind::kScanRepo48;
    const Ledger& model_ledger = modeled_off_path ? check_ledger_ : run_ledger_;
    const std::uint64_t model_items = modeled_off_path ? n : traced_targets_;
    const std::string per_run = "per traced target, " +
                                std::to_string(traced_targets_) + " traced";
    const std::string model_note =
        modeled_off_path ? "per target, reference-phase replay" : per_run;
    const std::string exact = "exact, " + std::to_string(n) + " targets";

    add("isa.assemble_us",
        asm_on_path ? run_ledger_.per_item_us(Layer::kAssemble, traced_targets_)
                    : check_ledger_.per_item_us(Layer::kAssemble, n),
        "us",
        asm_on_path ? per_run : "off the timed path: text round-trip check");
    constexpr Layer kModelLayers[] = {
        Layer::kCpuRun,    Layer::kCfgBuild,    Layer::kAggregate,
        Layer::kRelevant,  Layer::kAttackGraph, Layer::kNormalize,
        Layer::kCst};
    double replayed_us = 0.0;  // the same layers, paired with build_us
    for (Layer layer : kModelLayers) {
      add(std::string(layer_name(layer)) + "_us",
          model_ledger.per_item_us(layer, model_items), "us", model_note);
      replayed_us += check_ledger_.per_item_us(layer, n);
    }
    add("core.attack_graph.stress_us", attack_graph_stress_us(), "us",
        "one replay of the pinned stress program");
    const std::uint64_t retired =
        modeled_off_path ? total.retired : traced_retired_;
    add("cpu.sim_minstr_per_s",
        static_cast<double>(retired) * 1e3 /
            static_cast<double>(std::max<std::uint64_t>(
                1, model_ledger.total_ns(Layer::kCpuRun))),
        "Minstr/s", "simulated instructions per host second");
    add("cpu.retired", static_cast<double>(total.retired), "count", exact);
    add("cpu.cycles", static_cast<double>(total.cycles), "count",
        exact + ", simulated");
    add("cache.l1d_load_miss", static_cast<double>(total.l1d_load_miss),
        "count", exact + ", simulated");
    add("cache.llc_load_miss", static_cast<double>(total.llc_load_miss),
        "count", exact + ", simulated");
    add("cfg.blocks", static_cast<double>(total.blocks), "count", exact);
    add("core.relevant.kept_ratio", ratio(total.relevant, total.blocks),
        "ratio", "relevant blocks / blocks");
    add("core.attack_graph.nodes", static_cast<double>(total.graph_nodes),
        "count", exact);
    add("core.cst.calls", static_cast<double>(total.cst_calls), "count", exact);
    add("core.cst.accesses", static_cast<double>(total.cst_accesses), "count",
        exact);
    const double build_us = check_ledger_.per_item_us(Layer::kModelBuild, n);
    add("core.model.build_us", build_us, "us",
        "ModelBuilder::build per target, reference phase");
    add("core.model.unattributed_us", build_us - replayed_us, "us",
        "build_us minus its seven modeling layers, replayed alongside");
    add("core.compiled.compile_target_us",
        run_ledger_.per_item_us(Layer::kCompileTarget, traced_targets_), "us",
        per_run);
    add("core.scan.scan_us",
        run_ledger_.per_item_us(Layer::kScan, traced_targets_), "us", per_run);
    add("core.scan.pairs", static_cast<double>(total.pairs), "count", exact);
    add("core.scan.exact", static_cast<double>(total.exact), "count", exact);
    add("core.scan.kim_pruned", static_cast<double>(total.kim_pruned), "count",
        exact);
    add("core.scan.envelope_pruned", static_cast<double>(total.envelope_pruned),
        "count", exact);
    add("core.scan.early_abandoned", static_cast<double>(total.early_abandoned),
        "count", exact);
    add("core.scan.exact_ratio", ratio(total.exact, total.pairs), "ratio",
        "exact DPs / pairs");
    add("core.store.open_us", median(store_open_us_), "us",
        "ModelStore::open + attach_store, median of set-ups");
    add("support.thread_pool.busy_ratio",
        static_cast<double>(traced_busy_ns_) / 1e9 /
            (static_cast<double>(lanes_) * traced_s_),
        "ratio", "lane busy time / (" + std::to_string(lanes_) + " x wall)");
    add("support.events.emitted", static_cast<double>(journal_.emitted),
        "count", "event journal of the timed run");
    add("support.events.written", static_cast<double>(journal_.written),
        "count");
    add("support.events.dropped", static_cast<double>(journal_.dropped),
        "count");
    add("bench.trace_overhead_pct",
        (traced_s_ / untraced_paired_s_ - 1.0) * 100.0, "%",
        "traced vs untraced wall time over the same batches");
  }

  const Kind kind_;
  const Options opt_;
  const Shape shape_;
  const std::size_t lanes_;
  const std::string store_path_;
  const std::string journal_path_;
  Result result_;
  scag::support::ThreadPool pool_{kLanes};

  // The fixture, rebuilt by every set-up.
  std::vector<Target> corpus_;
  std::vector<core::AttackModel> models_;  // text models, the oracle's side
  std::unique_ptr<core::Detector> detector_;
  std::unique_ptr<core::BatchDetector> batch_;
  std::vector<std::vector<scag::isa::Program>> batch_programs_;
  std::vector<std::vector<core::CstBbs>> batch_sequences_;
  std::vector<std::string> texts_;
  std::vector<double> store_open_us_;

  // Untimed references, per distinct target.
  std::vector<core::CstBbs> ref_seq_;
  std::vector<core::Detection> oracle_;

  // The timed run.
  std::vector<std::optional<core::Detection>> first_det_;
  /// One closed-loop request: its latency and the targets it carried.
  struct Sample {
    double ms = 0.0;
    std::size_t targets = 0;
  };
  std::vector<Sample> samples_;
  events::JournalStats journal_{};

  // The traced run.
  std::uint64_t next_span_id_ = 1;
  Ledger run_ledger_, check_ledger_;
  std::vector<TargetCounts> counts_;
  std::vector<std::optional<core::CstBbs>> replay_seq_;
  std::vector<std::optional<core::Detection>> replay_det_;
  std::uint64_t traced_targets_ = 0;
  std::uint64_t traced_retired_ = 0;
  std::uint64_t traced_busy_ns_ = 0;
  double traced_s_ = 0.0;
  double untraced_paired_s_ = 0.0;
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {
      "pipeline-mixed", "scan-repo48", "single-asm"};
  return names;
}

Result run_workload(const Options& options) {
  const Kind kind = parse_kind(options.workload);
  prime_globals();
  return Bench(kind, options).run();
}

}  // namespace pipebench
