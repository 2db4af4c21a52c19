#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "access/access_rule.h"
#include "bench/corpus.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "crypto/cipher_backend.h"

namespace perfbench {

/// One closed-loop traffic mix. Every client thread draws its operations
/// from this spec with its own seeded generator; the program under test
/// sees only the generated corpora and rule sets.
struct WorkloadSpec {
  const char* name = "";
  std::vector<csxa::bench::CorpusFamily> families;
  uint64_t doc_bytes = 1 << 20;
  uint32_t depth = 0;  ///< kDeepNest spine depth (0 = generator default).
  /// Corpus content seed; 0 derives it from the run's --seed. A workload
  /// whose cost hangs on a few records fixes it (see deep_guarded).
  uint64_t content_seed = 0;
  csxa::crypto::CipherBackendKind backend = csxa::crypto::CipherBackendKind::kAes;
  /// Roles (rule families) and their relative request weights.
  std::vector<csxa::bench::RuleFamily> roles;
  std::vector<double> role_weights;
  /// Relative request weights of the documents (empty = uniform).
  std::vector<double> doc_weights;
  /// Share of serves run under the kTightBudget pending-buffer budget.
  double budget_share = 0.0;
  /// Contents each document cycles through on Update (1 = no churn).
  int contents = 1;
  /// Share of client operations that are Updates instead of serves.
  double update_share = 0.0;
  /// Serve over TCP (TerminalServer -> FaultProxy -> RemoteBatchSource).
  bool remote = false;
  uint64_t rtt_ns = 0;  ///< Round-trip time the proxy injects.
};

/// The tight pending-buffer budget, in bytes. Below the encoded size of
/// the pending subtrees the generated corpora have, so a tight serve
/// actually defers them (at 4 KiB none of these corpora defers at all).
inline constexpr uint64_t kTightBudget = 512;
inline constexpr int kClients = 3;

const WorkloadSpec* FindWorkload(const std::string& name);
std::string WorkloadNames();

/// One client operation.
struct Op {
  uint32_t doc = 0;
  uint32_t role = 0;
  bool tight = false;   ///< Serve under the kTightBudget pending budget.
  bool update = false;  ///< An Update of `doc` instead of a serve.
};

/// The workload's operation mix as a deck of kDeckSize operations in the
/// spec's exact proportions (largest-remainder rounding). Each client
/// deals from its own seeded shuffle of the deck and reshuffles when it
/// runs out, so a run's mix differs from the spec by one deck's rounding,
/// not by sampling noise — on a mix with a rare 10x-slower class, that
/// noise alone moves p95 and throughput by several percent.
inline constexpr size_t kDeckSize = 240;
std::vector<Op> BuildDeck(const WorkloadSpec& spec, size_t doc_count);

/// One published document with everything the benchmark checks it by.
struct Document {
  std::string id;
  std::vector<std::string> contents;                         ///< [content]
  std::vector<std::vector<csxa::access::AccessRule>> roles;  ///< [role]
  /// Reference views by direct SAX pass: refs[content][role].
  std::vector<std::vector<std::string>> refs;

  /// Serializes this document's updates in the benchmark, so that
  /// version v always carries contents[v % contents.size()].
  csxa::Mutex update_mu;
  uint32_t version CSXA_GUARDED_BY(update_mu) = 0;
};

/// Generates the workload's corpora, rule sets and reference views.
csxa::Result<std::vector<std::unique_ptr<Document>>> MakeDocuments(
    const WorkloadSpec& spec, uint64_t seed);

/// The document key of a run (derived from the seed).
csxa::crypto::TripleDes::Key KeyFor(uint64_t seed);

/// splitmix64, as the corpus generator uses: client schedules are a pure
/// function of (seed, client).
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
