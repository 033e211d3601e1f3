#include "corpus.h"

#include "attacks/registry.h"
#include "benign/registry.h"
#include "isa/random_program.h"
#include "mutation/mutator.h"
#include "support/rng.h"

namespace pipebench {

using scag::Rng;
using scag::core::Family;
namespace attacks = scag::attacks;

namespace {

/// Seeds the benign random programs. They are the same for every workload
/// seed: build_attack_graph's path enumeration makes their modeling cost
/// heavy-tailed (a rare program costs 100x to 1000x the median), so a
/// seeded draw would make throughput a function of the seed.
/// attack_graph_stress_program() covers that tail instead.
constexpr std::uint64_t kRandomProgramSeed = 2024;

constexpr Family kAttackFamilies[] = {Family::kFlushReload,
                                      Family::kPrimeProbe, Family::kSpectreFR,
                                      Family::kSpectrePP};

/// A PoC of `family` (the round-th, cycling), mutated or obfuscated.
Target attack_variant(Family family, std::size_t round, bool obfuscate,
                      Rng& rng) {
  const std::vector<attacks::PocSpec> pocs = attacks::pocs_of_family(family);
  const attacks::PocSpec& spec = pocs[round % pocs.size()];
  attacks::PocConfig config;
  // Run length follows the round, so every seed draws the same mix of
  // short and long attacks; the secret and the mutation are seeded.
  config.secret = 1 + rng.below(15);  // 1..15 (Spectre slot-0 rule)
  config.rounds = 3 + static_cast<int>(round % 4);
  config.trainings = 5 + static_cast<int>(round % 3);
  Rng mut_rng = rng.split();
  const scag::isa::Program base = spec.build(config);
  Target t;
  t.name = spec.name + (obfuscate ? "+obf-" : "+mut-") + std::to_string(round);
  t.truth = family;
  t.program = obfuscate ? scag::mutation::obfuscate(base, mut_rng)
                        : scag::mutation::mutate(base, mut_rng);
  return t;
}

Target benign_program(std::size_t round, Rng& rng, Rng& random_rng) {
  Rng gen = round % 2 == 0 ? rng.split() : random_rng.split();
  Target t;
  if (round % 2 == 0) {
    t.program = scag::benign::generate_benign(round / 2, gen);
  } else {
    scag::isa::RandomProgramOptions options;
    options.statements = 20 + 5 * static_cast<std::uint32_t>(round / 2 % 5);
    t.program = scag::isa::random_program(gen, options);
  }
  t.name = "benign-" + std::to_string(round) + "-" + t.program.name();
  t.truth = Family::kBenign;
  return t;
}

}  // namespace

std::vector<Target> make_corpus(std::size_t count, std::uint64_t seed) {
  Rng rng(seed), random_rng(kRandomProgramSeed);
  std::vector<Target> out;
  out.reserve(count + 6);
  for (std::size_t round = 0; out.size() < count; ++round) {
    for (Family f : kAttackFamilies)
      out.push_back(attack_variant(f, round, /*obfuscate=*/false, rng));
    out.push_back(
        attack_variant(Family::kFlushReload, round, /*obfuscate=*/true, rng));
    out.push_back(
        attack_variant(Family::kPrimeProbe, round, /*obfuscate=*/true, rng));
    out.push_back(benign_program(round, rng, random_rng));
  }
  return out;
}

scag::isa::Program attack_graph_stress_program() {
  // 110 blocks, 6 of them relevant: ~0.7 s in build_attack_graph on a
  // 2.1 GHz Xeon, against ~1 ms for a typical random program.
  Rng gen(0xbe30'abbe'002f'93f7ULL);
  scag::isa::RandomProgramOptions options;
  options.statements = 25;
  return scag::isa::random_program(gen, options);
}

std::vector<scag::core::AttackModel> all_poc_models(
    const scag::core::ModelBuilder& builder) {
  std::vector<scag::core::AttackModel> models;
  for (const attacks::PocSpec& spec : attacks::all_pocs())
    models.push_back(builder.build(spec.build(attacks::PocConfig{}),
                                   spec.family));
  return models;
}

std::vector<scag::core::AttackModel> expanded_models(
    std::size_t count, std::uint64_t seed,
    const scag::core::ModelBuilder& builder) {
  Rng rng(seed);
  std::vector<scag::core::AttackModel> models;
  for (std::size_t round = 0; models.size() < count; ++round) {
    for (Family f : kAttackFamilies) {
      if (models.size() >= count) break;
      const std::vector<attacks::PocSpec> pocs = attacks::pocs_of_family(f);
      const attacks::PocSpec& spec = pocs[round % pocs.size()];
      scag::isa::Program program = spec.build(attacks::PocConfig{});
      if (round > 0) {
        Rng mut_rng = rng.split();
        program = scag::mutation::mutate(program, mut_rng);
      }
      scag::core::AttackModel model = builder.build(program, f);
      model.name = spec.name + "/v" + std::to_string(round);
      models.push_back(std::move(model));
    }
  }
  return models;
}

}  // namespace pipebench
