#include "pipeline/serve_stream.h"

#include "xml/serializer.h"

namespace csxa::pipeline {

Result<std::unique_ptr<ServeStream>> ServeStream::Open(
    const crypto::BatchSource* source, const DocumentState& snapshot,
    const std::vector<access::AccessRule>& rules,
    const ServeOptions& options) {
  auto stream = std::unique_ptr<ServeStream>(
      new ServeStream(source, snapshot, options));
  CSXA_ASSIGN_OR_RETURN(
      stream->nav_,
      index::DocumentNavigator::OpenBuffer(stream->fetcher_.verified_view(),
                                           &stream->fetcher_));
  access::RuleEvaluator::Options eval_options;
  eval_options.pending_buffer_budget = options.pending_buffer_budget;
  stream->reader_ = std::make_unique<AuthorizedViewReader>(
      stream->nav_.get(), rules, eval_options,
      DriveOptions{options.enable_skip, &stream->fetcher_});
  return stream;
}

Result<ServeReport> DrainServeStream(ServeStream* stream) {
  xml::SerializingHandler serializer;
  while (true) {
    CSXA_ASSIGN_OR_RETURN(ViewItem item, stream->Next());
    if (item.end) break;
    serializer.Feed(item.event, item.depth);
  }

  ServeReport report;
  report.view = serializer.output();
  report.drive = stream->drive();
  report.eval = stream->eval();
  report.encoded_bytes = stream->fetcher().size();
  report.wire_bytes = stream->fetcher().wire_bytes();
  report.bytes_fetched = stream->fetcher().bytes_fetched();
  report.requests = stream->fetcher().requests();
  report.segments = stream->fetcher().segments();
  report.bare_chunk_reads = stream->fetcher().bare_chunk_reads();
  report.proof_hashes_shipped = stream->fetcher().proof_hashes_shipped();
  report.digest_bytes_shipped = stream->fetcher().digest_bytes_shipped();
  report.gap_fragments_bridged =
      stream->fetcher().planner_stats().gap_fragments_bridged;
  report.retries = stream->fetcher().retries();
  report.reconnects = stream->fetcher().reconnects();
  report.soe = stream->soe();
  report.digest_cache = stream->cache_stats();
  return report;
}

}  // namespace csxa::pipeline
