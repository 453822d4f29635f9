// Collision-safe fitness cache for genotype evaluations.
//
// The GA's original cache was an unordered_map keyed by a 64-bit FNV digest
// of the genotype: a hash collision silently reused a wrong evaluation. Here
// the digest is only the unordered_map *bucket* hash — the map key is the
// full genotype, so colliding genotypes compare unequal and get their own
// entries. The Hash parameter is injectable precisely so the regression test
// can force every genotype into one bucket and prove correctness.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "locking/gene.hpp"

namespace autolock::eval {

/// Same type as ga::Genotype (an alias either way).
using Genotype = lock::Genotype;

/// FNV-1a over the gene words. Used only for bucketing — never as the key.
struct GenotypeHash {
  std::size_t operator()(const Genotype& genes) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t value) {
      h ^= value;
      h *= 0x100000001b3ULL;
    };
    for (const lock::Gene& gene : genes) {
      mix(static_cast<std::uint64_t>(gene.kind));
      mix(gene.f_i);
      mix(gene.f_j);
      mix(gene.g_i);
      mix(gene.g_j);
      mix(gene.key_bit ? 0x9E3779B9ULL : 0x85EBCA6BULL);
      mix(gene.width);
      mix(gene.seed);
      mix(gene.splice_output ? 0x2545F491ULL : 0x27D4EB2FULL);
    }
    return static_cast<std::size_t>(h);
  }
};

/// Thread-safe map from full genotype to a cached evaluation result.
template <typename Value, typename Hash = GenotypeHash>
class FitnessCache {
 public:
  /// Returns true and fills `out` on a hit.
  bool lookup(const Genotype& genes, Value& out) const {
    const std::scoped_lock lock(mutex_);
    const auto it = map_.find(genes);
    if (it == map_.end()) return false;
    out = it->second;
    return true;
  }

  /// Inserts or overwrites (evaluations are deterministic per genotype, so
  /// concurrent double-stores write the same value).
  void store(const Genotype& genes, Value value) {
    const std::scoped_lock lock(mutex_);
    map_.insert_or_assign(genes, std::move(value));
  }

  std::size_t size() const {
    const std::scoped_lock lock(mutex_);
    return map_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<Genotype, Value, Hash> map_;
};

}  // namespace autolock::eval
