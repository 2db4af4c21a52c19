#include "probes.h"

#include <algorithm>

#include "access/rule_evaluator.h"
#include "common/clock.h"
#include "index/decoder.h"
#include "index/encoder.h"
#include "xml/sax_parser.h"

namespace perfbench {

namespace {

using csxa::NowNs;

/// Event list recorded once from a SAX pass, replayed into the evaluator.
class EventRecorder : public csxa::xml::EventHandler {
 public:
  struct Recorded {
    csxa::xml::EventKind kind;
    std::string text;
    int depth;
  };
  void OnOpen(const std::string& tag, int depth) override {
    events.push_back({csxa::xml::EventKind::kOpen, tag, depth});
  }
  void OnValue(const std::string& value, int depth) override {
    events.push_back({csxa::xml::EventKind::kValue, value, depth});
  }
  void OnClose(const std::string& tag, int depth) override {
    events.push_back({csxa::xml::EventKind::kClose, tag, depth});
  }
  std::vector<Recorded> events;
};

/// Receives the evaluator's output and keeps only a count.
class CountingSink : public csxa::xml::EventHandler {
 public:
  void OnOpen(const std::string&, int) override { ++events; }
  void OnValue(const std::string&, int) override { ++events; }
  void OnClose(const std::string&, int) override { ++events; }
  uint64_t events = 0;
};

/// Median wall time of kProbeRepeats runs of `body`; fails with the first
/// failing run's status.
template <typename Body>
csxa::Result<uint64_t> MedianNs(Body body) {
  std::vector<uint64_t> ns;
  for (int i = 0; i < kProbeRepeats; ++i) {
    const uint64_t t0 = NowNs();
    CSXA_RETURN_NOT_OK(body());
    ns.push_back(NowNs() - t0);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

}  // namespace

csxa::Result<ProbeResults> RunProbes(
    const WorkloadSpec& spec, const std::vector<std::unique_ptr<Document>>& docs,
    const csxa::crypto::TripleDes::Key& key) {
  uint64_t parse = 0, encode = 0, build = 0, decode = 0, evaluate = 0;
  uint64_t bytes = 0;
  for (const auto& doc : docs) {
    const std::string& xml = doc->contents[0];
    bytes += xml.size();

    CSXA_ASSIGN_OR_RETURN(uint64_t ns, MedianNs([&]() -> csxa::Status {
      return csxa::xml::SaxParser::ParseToDom(xml).status();
    }));
    parse += ns;

    CSXA_ASSIGN_OR_RETURN(auto dom, csxa::xml::SaxParser::ParseToDom(xml));
    CSXA_ASSIGN_OR_RETURN(ns, MedianNs([&]() -> csxa::Status {
      return csxa::index::Encode(*dom, csxa::index::Variant::kTcsbr).status();
    }));
    encode += ns;

    CSXA_ASSIGN_OR_RETURN(
        csxa::index::EncodedDocument encoded,
        csxa::index::Encode(*dom, csxa::index::Variant::kTcsbr));
    CSXA_ASSIGN_OR_RETURN(ns, MedianNs([&]() -> csxa::Status {
      return csxa::crypto::SecureDocumentStore::Build(
                 encoded.bytes, key, csxa::crypto::ChunkLayout{}, /*version=*/0,
                 spec.backend)
          .status();
    }));
    build += ns;

    CSXA_ASSIGN_OR_RETURN(ns, MedianNs([&]() -> csxa::Status {
      CSXA_ASSIGN_OR_RETURN(auto nav,
                            csxa::index::DocumentNavigator::Open(&encoded));
      while (true) {
        CSXA_ASSIGN_OR_RETURN(auto item, nav->Next());
        if (item.kind == csxa::index::DocumentNavigator::ItemKind::kEnd) break;
      }
      return csxa::Status::OK();
    }));
    decode += ns;

    EventRecorder recorder;
    CSXA_RETURN_NOT_OK(csxa::xml::SaxParser::Parse(xml, &recorder));
    uint64_t roles_ns = 0;
    for (const auto& rules : doc->roles) {
      CSXA_ASSIGN_OR_RETURN(ns, MedianNs([&]() -> csxa::Status {
        CountingSink sink;
        csxa::access::RuleEvaluator eval(rules, &sink);
        for (const auto& e : recorder.events) {
          switch (e.kind) {
            case csxa::xml::EventKind::kOpen: eval.OnOpen(e.text, e.depth); break;
            case csxa::xml::EventKind::kValue: eval.OnValue(e.text, e.depth); break;
            case csxa::xml::EventKind::kClose: eval.OnClose(e.text, e.depth); break;
          }
        }
        return eval.Finish();
      }));
      roles_ns += ns;
    }
    evaluate += roles_ns / doc->roles.size();
  }
  const double mib = static_cast<double>(bytes) / (1 << 20);
  auto per_mib = [mib](uint64_t ns) { return static_cast<double>(ns) / 1e6 / mib; };
  ProbeResults r;
  r.parse_ms_per_mib = per_mib(parse);
  r.encode_ms_per_mib = per_mib(encode);
  r.store_build_ms_per_mib = per_mib(build);
  r.decode_ms_per_mib = per_mib(decode);
  r.evaluate_ms_per_mib = per_mib(evaluate);
  return r;
}

}  // namespace perfbench
