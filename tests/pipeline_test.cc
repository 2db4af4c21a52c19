// End-to-end tests of the full SOE pipeline: encode → encrypt → serve
// ranges from the untrusted store → verify/decrypt lazily → navigate →
// evaluate access rules → serialize. The authorized view produced through
// the encrypted path must equal the view produced straight from the SAX
// parser, and tampering anywhere must surface as IntegrityError.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "crypto/secure_store.h"
#include "index/decoder.h"
#include "index/encoder.h"
#include "index/secure_fetcher.h"
#include "pipeline/authorized_view_reader.h"
#include "server/document_service.h"
#include "testing.h"
#include "xml/node.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace {

using namespace csxa;  // NOLINT

crypto::TripleDes::Key TestKey() {
  crypto::TripleDes::Key key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0x5a ^ (i * 13));
  }
  return key;
}

const char kDoc[] =
    "<Folder><Admin><Name>Jane</Name><SSN>123-45</SSN></Admin>"
    "<MedActs>"
    "<Analysis><Type>G3</Type><Cholesterol>260</Cholesterol>"
    "<Comments>bad</Comments></Analysis>"
    "<Analysis><Comments>fine</Comments><Type>G2</Type></Analysis>"
    "</MedActs></Folder>";

const char kRules[] =
    "+ /Folder\n"
    "- /Folder/Admin\n"
    "+ /Folder/Admin/Name\n"
    "- //Analysis[Type = G3]/Comments\n";

std::vector<access::AccessRule> TestRules() {
  auto rules = access::ParseRuleList(kRules);
  CHECK_OK(rules.status());
  return rules.ok() ? rules.take() : std::vector<access::AccessRule>{};
}

/// Oracle: evaluate straight from the SAX parser, no encoding/encryption.
std::string DirectView(
    const std::string& xml,
    const std::vector<access::AccessRule>& rules = TestRules()) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules, &ser);
  CHECK_OK(xml::SaxParser::Parse(xml, &eval));
  CHECK_OK(eval.Finish());
  return ser.output();
}


/// Publication without a shared cache: every serve starts cold.
server::DocumentConfig TestConfig(index::Variant variant,
                                  const crypto::ChunkLayout& layout) {
  server::DocumentConfig cfg;
  cfg.variant = variant;
  cfg.layout = layout;
  cfg.key = TestKey();
  cfg.shared_cache_capacity = 0;
  return cfg;
}

Result<std::string> SecureView(const std::string& xml,
                               index::Variant variant,
                               const crypto::ChunkLayout& layout) {
  server::DocumentService service;
  CSXA_RETURN_NOT_OK(service.Publish("doc", xml, TestConfig(variant, layout)));
  CSXA_ASSIGN_OR_RETURN(
      pipeline::ServeReport report,
      service.Serve("doc", TestRules(), pipeline::ServeOptions()));
  return report.view;
}

TEST(SecureViewMatchesDirectView) {
  const std::string expected = DirectView(kDoc);
  CHECK_EQ(expected,
           "<Folder><Admin><Name>Jane</Name></Admin><MedActs>"
           "<Analysis><Type>G3</Type><Cholesterol>260</Cholesterol>"
           "</Analysis>"
           "<Analysis><Comments>fine</Comments><Type>G2</Type></Analysis>"
           "</MedActs></Folder>");
  crypto::ChunkLayout layout;
  layout.chunk_size = 64;
  layout.fragment_size = 8;
  for (auto variant : {index::Variant::kTc, index::Variant::kTcs,
                       index::Variant::kTcsb, index::Variant::kTcsbr}) {
    auto view = SecureView(kDoc, variant, layout);
    CHECK_OK(view.status());
    if (view.ok()) CHECK_EQ(view.value(), expected);
  }
  // Also with the default (large-chunk) layout: one chunk covers all.
  auto view = SecureView(kDoc, index::Variant::kTcsbr, crypto::ChunkLayout{});
  CHECK_OK(view.status());
  if (view.ok()) CHECK_EQ(view.value(), expected);
}

TEST(SkippedSubtreesAreNeverFetched) {
  // Build a document with one small element followed by a large one; skip
  // the large subtree and verify its fragments were never transferred.
  std::string xml = "<r><head>h</head><big>";
  for (int i = 0; i < 200; ++i) {
    xml += "<item>payload-" + std::to_string(i) + "</item>";
  }
  xml += "</big></r>";

  auto dom = xml::SaxParser::ParseToDom(xml);
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  auto doc = index::Encode(*dom.value(), index::Variant::kTcsbr);
  CHECK_OK(doc.status());
  if (!doc.ok()) return;

  crypto::ChunkLayout layout;
  layout.chunk_size = 256;
  layout.fragment_size = 32;
  auto store = crypto::SecureDocumentStore::Build(doc.value().bytes,
                                                  TestKey(), layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  crypto::SoeDecryptor soe(TestKey(), layout, store.value().plaintext_size(),
                           store.value().chunk_count());
  index::SecureFetcher fetcher(&store.value(), &soe);
  auto nav =
      index::DocumentNavigator::OpenBuffer(fetcher.verified_view(), &fetcher);
  CHECK_OK(nav.status());
  if (!nav.ok()) return;

  // r, head, "h", /head, big -> skip -> /big, /r, end.
  for (int i = 0; i < 4; ++i) CHECK_OK(nav.value()->Next().status());
  auto big = nav.value()->Next();
  CHECK_OK(big.status());
  CHECK_EQ(big.value().tag, "big");
  CHECK_OK(nav.value()->SkipSubtree());
  while (true) {
    auto item = nav.value()->Next();
    CHECK_OK(item.status());
    if (!item.ok() ||
        item.value().kind == index::DocumentNavigator::ItemKind::kEnd) {
      break;
    }
  }
  CHECK(fetcher.bytes_fetched() < store.value().plaintext_size() / 2);
  CHECK(fetcher.wire_bytes() > 0);
}

TEST(PullStreamMatchesServeAndFetchesLazily) {
  // The pull API (OpenSession/Next) is the same code path Serve drains: the
  // concatenated events must serialize to the identical view, and the
  // first event must be deliverable before the whole document has been
  // fetched/decrypted (the reader advances the navigate→evaluate loop only
  // as far as each Next() needs).
  std::string xml = "<r>";
  for (int i = 0; i < 100; ++i) {
    xml += "<item>payload-" + std::to_string(i) + "</item>";
  }
  xml += "</r>";
  auto parsed = access::ParseRuleList("+ /r\n");
  CHECK_OK(parsed.status());
  if (!parsed.ok()) return;
  std::vector<access::AccessRule> rules = parsed.take();

  crypto::ChunkLayout layout;
  layout.chunk_size = 64;
  layout.fragment_size = 8;
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", xml,
                           TestConfig(index::Variant::kTcsbr, layout)));
  auto report = service.Serve("doc", rules, pipeline::ServeOptions());
  CHECK_OK(report.status());
  if (!report.ok()) return;

  auto session = service.OpenSession("doc", rules, pipeline::ServeOptions());
  CHECK_OK(session.status());
  if (!session.ok()) return;
  xml::SerializingHandler ser;
  bool first_event_before_full_fetch = false;
  size_t events = 0;
  while (true) {
    auto item = session.value()->Next();
    CHECK_OK(item.status());
    if (!item.ok() || item.value().end) break;
    if (++events == 1) {
      first_event_before_full_fetch =
          session.value()->stream().fetcher().bytes_fetched() * 2 <
          report.value().encoded_bytes;
    }
    ser.Feed(item.value().event, item.value().depth);
  }
  CHECK_EQ(ser.output(), report.value().view);
  CHECK(events > 0);
  CHECK(first_event_before_full_fetch);
}

TEST(TamperingDetectedThroughPipeline) {
  auto dom = xml::SaxParser::ParseToDom(kDoc);
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  auto doc = index::Encode(*dom.value(), index::Variant::kTcsbr);
  CHECK_OK(doc.status());
  if (!doc.ok()) return;
  crypto::ChunkLayout layout;
  layout.chunk_size = 64;
  layout.fragment_size = 8;
  auto store = crypto::SecureDocumentStore::Build(doc.value().bytes,
                                                  TestKey(), layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  store.value().TamperByte(doc.value().bytes.size() / 2, 0x80);

  crypto::SoeDecryptor soe(TestKey(), layout, store.value().plaintext_size(),
                           store.value().chunk_count());
  index::SecureFetcher fetcher(&store.value(), &soe);

  Status st = fetcher.Ensure(0, fetcher.size());
  CHECK(st.code() == StatusCode::kIntegrityError);
}

// ---------------------------------------------------------------------------
// Held-span reads: the navigator asks its fetcher only where a read leaves
// the span the fetcher reported verified and held.
// ---------------------------------------------------------------------------

using Range = std::pair<uint64_t, uint64_t>;

/// Fetcher decorator over a SecureFetcher: counts the navigator's Ensure()
/// calls, logs the ones that moved bytes (the demand sequence the planner
/// acts on) and every held span it reports. With `report_held` off it
/// reports none, so the navigator asks Ensure() for every field, bitmap
/// bit and text byte it reads — the unit-at-a-time reference.
class CountingFetcher : public index::Fetcher {
 public:
  CountingFetcher(index::SecureFetcher* inner, bool report_held)
      : inner_(inner), report_held_(report_held) {}

  Status Ensure(uint64_t begin, uint64_t end) override {
    ++ensures_;
    const uint64_t before = inner_->requests();
    Status st = inner_->Ensure(begin, end);
    if (inner_->requests() != before || !st.ok()) {
      fetching_.emplace_back(begin, end);
    }
    return st;
  }
  uint64_t HeldEnd(uint64_t begin) const override {
    if (!report_held_) return begin;
    const uint64_t end = inner_->HeldEnd(begin);
    spans_.emplace_back(begin, end);
    return end;
  }
  void HintWanted(uint64_t begin, uint64_t end) override {
    inner_->HintWanted(begin, end);
  }
  void HintExcluded(uint64_t begin, uint64_t end) override {
    inner_->HintExcluded(begin, end);
  }
  void HintStreamAll() override { inner_->HintStreamAll(); }
  uint64_t preferred_alignment() const override {
    return inner_->preferred_alignment();
  }
  uint64_t bytes_fetched() const override { return inner_->bytes_fetched(); }

  uint64_t ensures() const { return ensures_; }
  const std::vector<Range>& fetching() const { return fetching_; }
  const std::vector<Range>& spans() const { return spans_; }

 private:
  index::SecureFetcher* inner_;
  bool report_held_;
  uint64_t ensures_ = 0;
  std::vector<Range> fetching_;
  mutable std::vector<Range> spans_;
};

struct CountedServe {
  Status status;
  std::string view;
  uint64_t ensures = 0;
  uint64_t requests = 0;
  uint64_t wire_bytes = 0;
  std::vector<Range> fetching;
  std::vector<Range> spans;
};

/// One serve through a hand-wired SOE chain (decryptor, fetcher wrapped in
/// a CountingFetcher, navigator, view reader), skipping enabled.
CountedServe ServeCounted(const crypto::SecureDocumentStore& store,
                          const std::vector<access::AccessRule>& rules,
                          bool report_held) {
  crypto::SoeDecryptor soe(TestKey(), store.layout(), store.plaintext_size(),
                           store.chunk_count());
  index::SecureFetcher fetcher(&store, &soe);
  CountingFetcher counting(&fetcher, report_held);
  CountedServe out;
  out.status = [&]() -> Status {
    CSXA_ASSIGN_OR_RETURN(auto nav, index::DocumentNavigator::OpenBuffer(
                                        fetcher.verified_view(), &counting));
    pipeline::AuthorizedViewReader reader(
        nav.get(), rules, access::RuleEvaluator::Options(),
        pipeline::DriveOptions{true, &counting});
    xml::SerializingHandler ser;
    while (true) {
      CSXA_ASSIGN_OR_RETURN(pipeline::ViewItem item, reader.Next());
      if (item.end) break;
      ser.Feed(item.event, item.depth);
    }
    out.view = ser.output();
    return Status::OK();
  }();
  out.ensures = counting.ensures();
  out.requests = fetcher.requests();
  out.wire_bytes = fetcher.wire_bytes();
  out.fetching = counting.fetching();
  out.spans = counting.spans();
  return out;
}

/// Records with text of many lengths (unaligned bulk text reads), a
/// dictionary wide enough for multi-word DescTag bitmaps, and per-record
/// subtrees that the skip rules below prune.
std::string HeldSpanDocument() {
  std::string xml = "<Hospital>";
  for (int i = 0; i < 60; ++i) {
    xml += "<Folder><Name>patient-" + std::to_string(i) + "</Name><Notes>";
    xml += std::string(static_cast<size_t>(10 + (i * 37) % 90),
                       static_cast<char>('a' + i % 26));
    xml += "</Notes><MedActs><Act><Type>G" + std::to_string(i % 4) +
           "</Type><Dose>" + std::to_string(i * 7) + "</Dose></Act>";
    xml += "<T" + std::to_string(i % 70) + ">x</T" + std::to_string(i % 70) +
           "></MedActs></Folder>";
  }
  xml += "</Hospital>";
  return xml;
}

Result<crypto::SecureDocumentStore> BuildStore(const std::string& xml,
                                               index::Variant variant) {
  CSXA_ASSIGN_OR_RETURN(auto dom, xml::SaxParser::ParseToDom(xml));
  CSXA_ASSIGN_OR_RETURN(auto doc, index::Encode(*dom, variant));
  crypto::ChunkLayout layout;
  layout.chunk_size = 256;
  layout.fragment_size = 32;
  return crypto::SecureDocumentStore::Build(doc.bytes, TestKey(), layout);
}

TEST(HeldSpanReadsKeepTheDemandSequence) {
  const std::string xml = HeldSpanDocument();
  for (const char* rules_text :
       {"+ /Hospital\n", "+ /Hospital\n- //Notes\n- //MedActs\n"}) {
    auto parsed = access::ParseRuleList(rules_text);
    CHECK_OK(parsed.status());
    if (!parsed.ok()) continue;
    const std::vector<access::AccessRule> rules = parsed.take();
    const std::string expected = DirectView(xml, rules);
    for (auto variant : {index::Variant::kTc, index::Variant::kTcs,
                         index::Variant::kTcsb, index::Variant::kTcsbr}) {
      auto store = BuildStore(xml, variant);
      CHECK_OK(store.status());
      if (!store.ok()) continue;
      const CountedServe per_unit = ServeCounted(store.value(), rules, false);
      const CountedServe held = ServeCounted(store.value(), rules, true);
      CHECK_OK(per_unit.status);
      CHECK_OK(held.status);
      CHECK_EQ(per_unit.view, expected);
      CHECK_EQ(held.view, expected);
      // Only calls that found every byte held were dropped: the demands
      // that moved bytes, and the bytes they moved, are the same.
      CHECK(held.fetching == per_unit.fetching);
      CHECK_EQ(held.requests, per_unit.requests);
      CHECK_EQ(held.wire_bytes, per_unit.wire_bytes);
      // O(fragments + requests) Ensure() calls, not one per field or byte.
      const uint64_t fragments = (store.value().ciphertext().size() + 31) / 32;
      CHECK(held.ensures <= fragments + held.requests + 8);
      CHECK(held.ensures * 4 < per_unit.ensures);
    }
  }
}

TEST(TamperedFragmentNeverEntersTheHeldSpan) {
  const std::string xml = HeldSpanDocument();
  auto parsed = access::ParseRuleList("+ /Hospital\n");
  CHECK_OK(parsed.status());
  if (!parsed.ok()) return;
  const std::vector<access::AccessRule> rules = parsed.take();
  for (auto variant : {index::Variant::kTc, index::Variant::kTcsbr}) {
    auto store = BuildStore(xml, variant);
    CHECK_OK(store.status());
    if (!store.ok()) continue;
    const uint64_t pos = store.value().plaintext_size() / 2;
    const uint64_t frag_begin = pos / 32 * 32;
    store.value().TamperByte(pos, 0x80);
    const CountedServe per_unit = ServeCounted(store.value(), rules, false);
    const CountedServe held = ServeCounted(store.value(), rules, true);
    // The whole document is granted, so the serve must read into the
    // tampered fragment: it fails there, on the same demand as the
    // unit-at-a-time reader, and no reported span ever covered it.
    CHECK(per_unit.status.code() == StatusCode::kIntegrityError);
    CHECK(held.status.code() == StatusCode::kIntegrityError);
    CHECK(held.fetching == per_unit.fetching);
    CHECK(!held.spans.empty());
    for (const Range& span : held.spans) {
      CHECK(span.second <= frag_begin || span.first >= frag_begin + 32);
    }
  }
}

}  // namespace
