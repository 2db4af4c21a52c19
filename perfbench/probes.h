#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "crypto/secure_store.h"
#include "workloads.h"

namespace perfbench {

/// Single-threaded timings of one layer at a time, on the workload's own
/// documents (content 0 of each, TCSBR, default chunk layout), in ms per
/// MiB of XML text. Each figure
/// is the per-document median of kProbeRepeats runs, summed over the
/// documents and divided by their total size.
struct ProbeResults {
  double parse_ms_per_mib = 0;        ///< xml::SaxParser::ParseToDom.
  double encode_ms_per_mib = 0;       ///< index::Encode (TCSBR).
  double store_build_ms_per_mib = 0;  ///< crypto::SecureDocumentStore::Build.
  /// index::DocumentNavigator::Open over the fully materialized image,
  /// Next() to the end — the decoder with no fetcher, crypto or rules.
  double decode_ms_per_mib = 0;
  /// access::RuleEvaluator fed a recorded event list, averaged over the
  /// workload's roles — the evaluator with no parser or navigator.
  double evaluate_ms_per_mib = 0;
};

inline constexpr int kProbeRepeats = 3;

csxa::Result<ProbeResults> RunProbes(
    const WorkloadSpec& spec, const std::vector<std::unique_ptr<Document>>& docs,
    const csxa::crypto::TripleDes::Key& key);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
