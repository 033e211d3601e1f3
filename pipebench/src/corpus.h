// Seeded inputs of the pipeline ledger: scan targets with ground truth,
// and the repositories they are scanned against. Everything here is a pure
// function of its seed; the program under test only sees the results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/family.h"
#include "core/model.h"
#include "isa/program.h"

namespace pipebench {

struct Target {
  std::string name;
  scag::core::Family truth = scag::core::Family::kBenign;
  scag::isa::Program program;
};

/// The paper's Table II/III proportions, in groups of seven: one mutated
/// variant per attack family (cycling through all 11 PoCs), obfuscated
/// FR-F and PP-F variants, and one benign program (benign templates and
/// random programs alternate; the random programs are the same for every
/// seed). `count` is rounded up to a multiple of seven.
std::vector<Target> make_corpus(std::size_t count, std::uint64_t seed);

/// A pinned benign random program on which build_attack_graph's path
/// enumeration is slow (the heavy tail kept out of make_corpus).
scag::isa::Program attack_graph_stress_program();

/// The scagctl build-repo repository: every PoC of Table II, default
/// configuration, modeled with `builder`.
std::vector<scag::core::AttackModel> all_poc_models(
    const scag::core::ModelBuilder& builder);

/// A mutant-expanded repository of `count` models: each family's PoCs in
/// turn, round 0 as built and later rounds as seeded mutants, families
/// interleaved.
std::vector<scag::core::AttackModel> expanded_models(
    std::size_t count, std::uint64_t seed,
    const scag::core::ModelBuilder& builder);

}  // namespace pipebench
