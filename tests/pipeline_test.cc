// End-to-end tests of the full SOE pipeline: encode → encrypt → serve
// ranges from the untrusted store → verify/decrypt lazily → navigate →
// evaluate access rules → serialize. The authorized view produced through
// the encrypted path must equal the view produced straight from the SAX
// parser, and tampering anywhere must surface as IntegrityError.

#include <algorithm>
#include <cstdint>
#include <optional>
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
#include "xml/flat_tree.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"
#include "xml/stats.h"

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
  return csxa::testing::DirectView(xml, rules);
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
  CHECK_EQ(nav.value()->dictionary().Name(big.value().tag_id), "big");
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

// ---------------------------------------------------------------------------
// Word-level header reads: a field comes from one 8-byte load only when
// those 8 bytes lie inside the verified held span.
// ---------------------------------------------------------------------------

/// Fetcher double over a trusted encoded image. The navigator's buffer
/// starts as 0xFF poison; Ensure() copies the real bytes in up to the next
/// unit boundary (boundaries at `phase` + k * `unit`), and HeldEnd()
/// reports exactly the copied run from `begin`. Across all phases, held
/// spans end at every byte offset, and any read past a reported end meets
/// poison.
class PoisonFetcher : public index::Fetcher {
 public:
  PoisonFetcher(const std::vector<uint8_t>& image, uint64_t unit,
                uint64_t phase, const crypto::SoeDecryptor& soe)
      : image_(image),
        unit_(unit),
        phase_(phase),
        buffer_(image.size(), 0xFF),
        held_(image.size(), false),
        view_(soe.VerifiedViewOf(buffer_.data(), buffer_.size())) {}

  const common::VerifiedPlaintext& view() const { return view_; }

  Status Ensure(uint64_t begin, uint64_t end) override {
    end = end <= phase_ ? phase_
                        : phase_ + (end - phase_ + unit_ - 1) / unit_ * unit_;
    end = std::min<uint64_t>(end, image_.size());
    for (uint64_t i = begin; i < end; ++i) {
      buffer_[i] = image_[i];
      held_[i] = true;
    }
    return Status::OK();
  }
  uint64_t HeldEnd(uint64_t begin) const override {
    while (begin < held_.size() && held_[begin]) ++begin;
    return begin;
  }

 private:
  const std::vector<uint8_t>& image_;
  uint64_t unit_;
  uint64_t phase_;
  std::vector<uint8_t> buffer_;
  std::vector<bool> held_;
  common::VerifiedPlaintext view_;  // Over buffer_'s fixed storage.
};

/// Every field of every item `nav` yields while it streams to the end,
/// jumping each Notes element whole and each MedActs subtree (when the
/// variant can skip) after a checkpoint at the first MedActs; then it seeks
/// back to that checkpoint, behind everything read since, and re-reads the
/// subtree.
std::string WordReadTranscript(index::DocumentNavigator* nav) {
  using K = index::DocumentNavigator::ItemKind;
  xml::TagId notes = 0, medacts = 0;
  CHECK(nav->dictionary().Lookup("Notes", &notes));
  CHECK(nav->dictionary().Lookup("MedActs", &medacts));
  std::string out;
  auto next = [&]() -> std::optional<index::DocumentNavigator::Item> {
    auto item = nav->Next();
    if (!item.ok()) {
      out += item.status().ToString();
      return std::nullopt;
    }
    const auto& it = item.value();
    out += std::to_string(static_cast<int>(it.kind)) + "@" +
           std::to_string(it.depth) + " " + std::to_string(it.tag_id) + " [" +
           std::string(it.value) + "] " + std::to_string(it.subtree_bits) +
           "/" +
           std::to_string(it.subtree_begin_bit);
    if (it.desc != nullptr) {
      for (xml::TagId t : *it.desc) out += "," + std::to_string(t);
    }
    out += "\n";
    return item.take();
  };
  std::optional<index::DocumentNavigator::Checkpoint> back;
  int back_depth = 0;
  while (true) {
    auto it = next();
    if (!it) return out;
    if (it->kind == K::kEnd) break;
    if (it->kind != K::kOpen) continue;
    if (it->tag_id == medacts && !back) {
      back = nav->Save();
      back_depth = it->depth;
    }
    if (!nav->CanSkip()) continue;  // TC reads everything.
    if (it->tag_id == notes) CHECK_OK(nav->SkipElement());
    if (it->tag_id == medacts) CHECK_OK(nav->SkipSubtree());
  }
  CHECK(back.has_value());
  if (!back) return out;
  out += "seek\n";
  CHECK_OK(nav->SeekTo(*back));
  while (true) {
    auto it = next();
    if (!it || it->kind == K::kEnd) break;
    if (it->kind == K::kClose && it->depth == back_depth) break;
  }
  return out;
}

TEST(WordReadsNeverLeaveTheHeldSpan) {
  auto dom = xml::SaxParser::ParseToDom(HeldSpanDocument());
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  for (auto variant : {index::Variant::kTc, index::Variant::kTcs,
                       index::Variant::kTcsb, index::Variant::kTcsbr}) {
    auto doc = index::Encode(*dom.value(), variant);
    CHECK_OK(doc.status());
    if (!doc.ok()) continue;
    const std::vector<uint8_t>& image = doc.value().bytes;
    auto resident = index::DocumentNavigator::Open(&doc.value());
    CHECK_OK(resident.status());
    if (!resident.ok()) continue;
    const std::string expected = WordReadTranscript(resident.value().get());
    CHECK(expected.find("seek") != std::string::npos);
    crypto::ChunkLayout layout;
    layout.chunk_size = 256;
    layout.fragment_size = 32;
    const crypto::SoeDecryptor soe(TestKey(), layout, image.size(),
                                   (image.size() + 255) / 256);
    for (uint64_t unit : {uint64_t{16}, uint64_t{64}}) {
      for (uint64_t phase = 0; phase < unit; ++phase) {
        PoisonFetcher fetcher(image, unit, phase, soe);
        auto nav = index::DocumentNavigator::OpenBuffer(fetcher.view(),
                                                        &fetcher);
        CHECK_OK(nav.status());
        if (!nav.ok()) continue;
        CHECK_EQ(WordReadTranscript(nav.value().get()), expected);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Verbatim streaming of granted subtrees: a subtree WholeSubtreeAuthorized()
// proved granted in full bypasses the evaluator when nothing undecided is
// queued ahead of it.
// ---------------------------------------------------------------------------

std::vector<access::AccessRule> Rules(const char* text) {
  auto parsed = access::ParseRuleList(text);
  CHECK_OK(parsed.status());
  return parsed.ok() ? parsed.take() : std::vector<access::AccessRule>{};
}

/// `count` children `<x>`, each with a distinct text.
std::string Items(const std::string& prefix, int count) {
  std::string xml;
  for (int i = 0; i < count; ++i) {
    xml += "<x>" + prefix + std::to_string(1000 + i) + "</x>";
  }
  return xml;
}

TEST(GrantedSubtreesKeepDocumentOrder) {
  constexpr int kItems = 80;
  // Idle: when <g> opens, everything before it is decided. The pending <d>
  // after it waits on <k> and, at the tight budget, is deferred.
  const std::string idle_doc = "<r><h>head</h><g>" + Items("granted-", kItems) +
                               "</g><d>" + Items("deferred-", kItems) +
                               "</d><k>1</k></r>";
  const auto idle_rules = Rules("+ /r/g\n+ /r[k = 1]/d\n");
  // Not idle: r's text waits on a predicate whose evidence, <ok>, follows
  // the granted <g>.
  const std::string busy_doc =
      "<r>intro<g>" + Items("granted-", kItems) + "</g><ok>yes</ok></r>";
  const auto busy_rules = Rules("+ /r[ok = yes]\n+ /r/g\n");
  // Both at one open: <k> is the evidence that grants the pending <d>
  // before it, and is itself granted in full. Its open flushes <d> (at the
  // tight budget, a splice) and leaves the evaluator idle: the splice must
  // go out before <k>'s verbatim content.
  const std::string grant_doc = "<r><d>" + Items("deferred-", kItems) +
                                "</d><k>" + Items("granted-", kItems) +
                                "</k></r>";
  const auto grant_rules = Rules("+ /r[k]/d\n+ /r/k\n");
  const uint64_t inside = 3 * kItems;  // Events strictly inside <g> or <d>.

  crypto::ChunkLayout layout;
  layout.chunk_size = 256;
  layout.fragment_size = 32;
  for (auto variant :
       {index::Variant::kTcs, index::Variant::kTcsb, index::Variant::kTcsbr}) {
    server::DocumentService service;
    CHECK_OK(service.Publish("idle", idle_doc, TestConfig(variant, layout)));
    CHECK_OK(service.Publish("busy", busy_doc, TestConfig(variant, layout)));
    CHECK_OK(service.Publish("grant", grant_doc, TestConfig(variant, layout)));
    for (uint64_t budget : {UINT64_MAX, uint64_t{512}}) {
      const bool tight = budget != UINT64_MAX;
      auto idle = service.Serve("idle", idle_rules, {true, budget});
      auto idle_full = service.Serve("idle", idle_rules, {false, budget});
      auto busy = service.Serve("busy", busy_rules, {true, budget});
      auto busy_full = service.Serve("busy", busy_rules, {false, budget});
      CHECK_OK(idle.status());
      CHECK_OK(idle_full.status());
      CHECK_OK(busy.status());
      CHECK_OK(busy_full.status());
      if (!idle.ok() || !idle_full.ok() || !busy.ok() || !busy_full.ok()) {
        continue;
      }
      CHECK_EQ(idle.value().view, DirectView(idle_doc, idle_rules));
      CHECK_EQ(idle.value().view, idle_full.value().view);
      CHECK_EQ(busy.value().view, DirectView(busy_doc, busy_rules));
      CHECK_EQ(busy.value().view, busy_full.value().view);
      // Idle: of <g> the evaluator sees only the open and the close. Outside
      // it: r, h (its text skipped), d (deferred at the tight budget, else
      // streamed and buffered), k and its text.
      CHECK_EQ(idle_full.value().eval.events_in, 12 + 2 * inside);
      CHECK_EQ(idle.value().eval.events_in, tight ? 11 : 11 + inside);
      CHECK_EQ(idle.value().drive.deferrals, uint64_t{tight ? 1u : 0u});
      CHECK_EQ(idle.value().drive.rereads, uint64_t{tight ? 1u : 0u});
      // Not idle: every event goes through the evaluator, but the opens
      // inside <g> consult no oracle: only r, g and ok do.
      CHECK_EQ(busy.value().eval.events_in, 8 + inside);
      CHECK_EQ(busy.value().eval.events_in, busy_full.value().eval.events_in);
      CHECK_EQ(busy.value().eval.skip_checks, uint64_t{3});

      auto grant = service.Serve("grant", grant_rules, {true, budget});
      auto grant_full = service.Serve("grant", grant_rules, {false, budget});
      CHECK_OK(grant.status());
      CHECK_OK(grant_full.status());
      if (!grant.ok() || !grant_full.ok()) continue;
      CHECK_EQ(grant.value().view, DirectView(grant_doc, grant_rules));
      CHECK_EQ(grant.value().view, grant_full.value().view);
      CHECK_EQ(grant.value().drive.rereads, uint64_t{tight ? 1u : 0u});
      CHECK_EQ(grant.value().eval.events_in, tight ? 6 : 6 + inside);
    }
  }
}

/// An `<a>` chain `depth` deep with one text at the bottom.
std::string Chain(int depth) {
  std::string xml;
  for (int i = 0; i < depth; ++i) xml += "<a>";
  xml += "bottom";
  for (int i = 0; i < depth; ++i) xml += "</a>";
  return xml;
}

TEST(DeepGrantedChainsPromiseOnce) {
  // Each element of a granted chain used to promise its whole subtree to
  // the planner again: O(depth x fragments) hint work. One promise at the
  // root now covers it, and the oracle and evaluator see only the root.
  const auto rules = Rules("+ /a\n");
  struct Counts {
    uint64_t skip_checks = 0;
    uint64_t hints_wanted = 0;
    uint64_t events_in = 0;
  };
  std::vector<Counts> counts;
  for (int depth : {4096, 16384}) {
    const std::string xml = Chain(depth);
    server::DocumentService service;
    CHECK_OK(service.Publish(
        "doc", xml, TestConfig(index::Variant::kTcsbr, crypto::ChunkLayout{})));
    auto session = service.OpenSession("doc", rules, pipeline::ServeOptions());
    CHECK_OK(session.status());
    if (!session.ok()) return;
    xml::SerializingHandler ser;
    while (true) {
      auto item = session.value()->Next();
      CHECK_OK(item.status());
      if (!item.ok() || item.value().end) break;
      ser.Feed(item.value().event, item.value().depth);
    }
    CHECK(ser.output() == xml);
    const pipeline::ServeStream& stream = session.value()->stream();
    counts.push_back({stream.eval().skip_checks,
                      stream.fetcher().planner_stats().hints_wanted,
                      stream.eval().events_in});
  }
  CHECK_EQ(counts[0].skip_checks, counts[1].skip_checks);
  CHECK_EQ(counts[0].hints_wanted, counts[1].hints_wanted);
  CHECK_EQ(counts[0].events_in, counts[1].events_in);
  CHECK_EQ(counts[1].events_in, uint64_t{2});
}

TEST(ChainOf160kPublishesAndServesOnTheDefaultStack) {
  // Publish parses into the flat tree and encodes with explicit stacks;
  // the serve side keeps per-level state in vectors. Nothing recurses per
  // level, so a chain whose per-level frames would overflow an 8 MB stack
  // publishes and serves on the caller's stack, sanitizer builds included.
  const std::string xml = Chain(160 << 10);
  server::DocumentService service;
  CHECK_OK(service.Publish(
      "doc", xml, TestConfig(index::Variant::kTcsbr, crypto::ChunkLayout{})));
  auto report = service.Serve("doc", Rules("+ /a\n"), pipeline::ServeOptions());
  CHECK_OK(report.status());
  if (report.ok()) CHECK(report.value().view == xml);
  // The streaming serializer and the Table 2 sweep take the same depth,
  // and a DOM of it builds and frees without recursing.
  xml::SerializingHandler serialized;
  CHECK_OK(xml::SaxParser::Parse(xml, &serialized));
  CHECK(serialized.output() == xml);
  auto tree = xml::FlatTree::Parse(xml);
  CHECK_OK(tree.status());
  if (tree.ok()) {
    CHECK_EQ(xml::ComputeStats(tree.value()).max_depth, 160 << 10);
  }
  // Built and freed within the statement.
  CHECK_OK(xml::SaxParser::ParseToDom(xml).status());
}

TEST(TamperInsideVerbatimSubtreeFailsClosed) {
  // <g> is granted in full and opens with the evaluator idle, so its
  // content streams verbatim. One fragment in its middle is tampered: the
  // serve must fail with IntegrityError and return no event whose bytes
  // touch that fragment.
  const std::string xml =
      "<r><h>hidden</h><g>" + Items("v", 300) + "</g></r>";
  const auto rules = Rules("+ /r/g\n");
  auto dom = xml::SaxParser::ParseToDom(xml);
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  auto doc = index::Encode(*dom.value(), index::Variant::kTcsbr);
  CHECK_OK(doc.status());
  if (!doc.ok()) return;

  // Reference decode of the untampered image: each item and the byte its
  // encoding ends at.
  struct Decoded {
    xml::Event event;
    uint64_t end_byte = 0;
  };
  std::vector<Decoded> decoded;
  {
    auto nav = index::DocumentNavigator::Open(&doc.value());
    CHECK_OK(nav.status());
    if (!nav.ok()) return;
    while (true) {
      auto item = nav.value()->Next();
      CHECK_OK(item.status());
      using K = index::DocumentNavigator::ItemKind;
      if (!item.ok() || item.value().kind == K::kEnd) break;
      const auto& it = item.value();
      const std::string& tag = nav.value()->dictionary().Name(it.tag_id);
      decoded.push_back(
          {it.kind == K::kOpen    ? xml::Event::Open(tag)
           : it.kind == K::kValue ? xml::Event::Value(std::string(it.value))
                                  : xml::Event::Close(tag),
           nav.value()->stream_offset() + (nav.value()->bits_read() + 7) / 8});
    }
  }
  // r, h, "hidden", /h, then g at index 4.
  CHECK(decoded.size() > 5);
  if (decoded.size() <= 5) return;
  CHECK(decoded[4].event == xml::Event::Open("g"));

  crypto::ChunkLayout layout;
  layout.chunk_size = 256;
  layout.fragment_size = 32;
  auto store =
      crypto::SecureDocumentStore::Build(doc.value().bytes, TestKey(), layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  const std::string marker = "v1200";
  const size_t pos = std::string(doc.value().bytes.begin(),
                                 doc.value().bytes.end())
                         .find(marker);
  CHECK(pos != std::string::npos);
  const uint64_t frag_begin = pos / 32 * 32;
  store.value().TamperByte(pos, 0x80);

  crypto::SoeDecryptor soe(TestKey(), layout, store.value().plaintext_size(),
                           store.value().chunk_count());
  index::SecureFetcher fetcher(&store.value(), &soe);
  auto nav =
      index::DocumentNavigator::OpenBuffer(fetcher.verified_view(), &fetcher);
  CHECK_OK(nav.status());
  if (!nav.ok()) return;
  pipeline::AuthorizedViewReader reader(nav.value().get(), rules,
                                        access::RuleEvaluator::Options(),
                                        pipeline::DriveOptions{true, &fetcher});
  std::vector<xml::Event> events;
  Status failure;
  while (true) {
    auto item = reader.Next();
    if (!item.ok()) {
      failure = item.status();
      break;
    }
    if (item.value().end) break;
    events.push_back(xml::Event::Of(item.value().event));
  }
  CHECK(failure.code() == StatusCode::kIntegrityError);
  // The evaluator saw r, h (skipped) and g's open: g's content bypassed it.
  CHECK_EQ(reader.eval_stats().events_in, uint64_t{4});
  // The view so far is <r>, <g>, then g's content in document order.
  CHECK(events.size() > 2);
  if (events.size() <= 2) return;
  CHECK(events[0] == xml::Event::Open("r"));
  CHECK(events[1] == xml::Event::Open("g"));
  for (size_t i = 2; i < events.size(); ++i) {
    const Decoded& ref = decoded[4 + i - 1];
    CHECK(events[i] == ref.event);
    CHECK(ref.end_byte <= frag_begin);
  }
}

/// An event with its depth, copied out of whatever it borrowed from.
struct OwnedEvent {
  xml::Event event;
  int depth = 0;
  bool operator==(const OwnedEvent& other) const = default;
};

/// Records the events an evaluator emits, copying each at once.
class EventRecorder : public xml::EventHandler {
 public:
  void OnOpen(const std::string& tag, int depth) override {
    events.push_back({xml::Event::Open(tag), depth});
  }
  void OnValue(const std::string& value, int depth) override {
    events.push_back({xml::Event::Value(value), depth});
  }
  void OnClose(const std::string& tag, int depth) override {
    events.push_back({xml::Event::Close(tag), depth});
  }
  std::vector<OwnedEvent> events;
};

TEST(BorrowedViewsMatchSaxEventSequence) {
  // A view item borrows its text until the next Next(). Every path that
  // hands one out is driven here: values decided on arrival (borrowed
  // from the navigator's decode buffer), values queued as pending and
  // handed over at flush (owned by the output queue), granted deferrals
  // spliced back in, and granted subtrees streamed verbatim. Each item is
  // copied as soon as it is pulled; the copies must equal the SAX pass's
  // (kind, depth, text) sequence. Texts are long enough to live on the
  // heap, so a view that outlives its text fails under the sanitizers.
  std::string xml = "<Hospital>";
  for (const char* clearance : {"open", "closed"}) {
    xml += "<Folder><MedActs>";
    for (int i = 0; i < 60; ++i) {
      xml += "<Consult><Diagnostic>finding-" + std::to_string(i) +
             " lorem ipsum &amp; dolor &lt;sit&gt; amet</Diagnostic>"
             "</Consult>";
    }
    xml += std::string("</MedActs><Clearance>") + clearance +
           "</Clearance></Folder>";
  }
  xml += "<Public>" + Items("public notice, long enough for the heap ", 40) +
         "</Public></Hospital>";
  const char kGuarded[] = "+ /Hospital/Folder[Clearance = open]/MedActs\n";
  const char kPublic[] = "+ /Hospital/Public\n";
  const char kBoth[] =
      "+ /Hospital/Folder[Clearance = open]/MedActs\n"
      "+ /Hospital/Public\n";

  struct Mode {
    const char* name;
    const char* rules;
    pipeline::ServeOptions options;
  };
  const Mode kModes[] = {
      // The guarded MedActs queue; Public's values go out on arrival.
      {"full stream", kBoth, pipeline::ServeOptions(false, UINT64_MAX)},
      // Denied subtrees are skipped; the guarded MedActs still queue.
      {"skip", kGuarded, pipeline::ServeOptions(true, UINT64_MAX)},
      // Both MedActs are deferred; the granted one is spliced back in.
      {"512 B budget", kGuarded, pipeline::ServeOptions(true, 512)},
      // Public is granted in full while the evaluator is idle.
      {"verbatim bypass", kPublic, pipeline::ServeOptions(true, UINT64_MAX)},
  };
  crypto::ChunkLayout layout;
  layout.chunk_size = 256;
  layout.fragment_size = 32;
  for (auto variant : {index::Variant::kTc, index::Variant::kTcs,
                       index::Variant::kTcsb, index::Variant::kTcsbr}) {
    server::DocumentService service;
    CHECK_OK(service.Publish("doc", xml, TestConfig(variant, layout)));
    for (const Mode& mode : kModes) {
      const auto rules = Rules(mode.rules);
      EventRecorder reference;
      access::RuleEvaluator eval(rules, &reference);
      CHECK_OK(xml::SaxParser::Parse(xml, &eval));
      CHECK_OK(eval.Finish());
      CHECK(reference.events.size() > 100);

      auto session = service.OpenSession("doc", rules, mode.options);
      CHECK_OK(session.status());
      if (!session.ok()) continue;
      std::vector<OwnedEvent> got;
      while (true) {
        auto item = session.value()->Next();
        CHECK_OK(item.status());
        if (!item.ok() || item.value().end) break;
        got.push_back(
            {xml::Event::Of(item.value().event), item.value().depth});
      }
      if (got != reference.events) {
        testing::Fail(__FILE__, __LINE__,
                      std::string("view events differ: ") + mode.name +
                          ", variant " +
                          std::to_string(static_cast<int>(variant)));
      }
      // Each mode took the path it is named for (TC streams cannot skip).
      if (variant == index::Variant::kTc || !mode.options.enable_skip) {
        continue;
      }
      const pipeline::ServeStream& stream = session.value()->stream();
      if (mode.rules == kPublic) {
        // The evaluator saw Hospital, the skipped Folders and Public's
        // open and close only.
        CHECK(stream.eval().events_in < 10);
      } else if (mode.options.pending_buffer_budget == UINT64_MAX) {
        CHECK(stream.eval().peak_buffered_bytes > 512);
        CHECK_EQ(stream.drive().deferrals, uint64_t{0});
      } else {
        CHECK_EQ(stream.drive().deferrals, uint64_t{2});
        CHECK_EQ(stream.drive().rereads, uint64_t{1});
      }
    }
  }
}

}  // namespace
