// End-to-end tests of the full SOE pipeline: encode → encrypt → serve
// ranges from the untrusted store → verify/decrypt lazily → navigate →
// evaluate access rules → serialize. The authorized view produced through
// the encrypted path must equal the view produced straight from the SAX
// parser, and tampering anywhere must surface as IntegrityError.

#include <string>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "crypto/secure_store.h"
#include "index/decoder.h"
#include "index/encoder.h"
#include "index/secure_fetcher.h"
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
std::string DirectView(const std::string& xml) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(TestRules(), &ser);
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

}  // namespace
