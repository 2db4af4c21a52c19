// XML and Skip-index layer tests: SAX parsing, serialization round-trips,
// and encode/navigate round-trips plus subtree skipping across the
// structure-encoding variants of Figure 8.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/corpus.h"
#include "crypto/sha1.h"
#include "index/decoder.h"
#include "index/encoder.h"
#include "index/variants.h"
#include "testing.h"
#include "xml/node.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"
#include "xml/stats.h"

namespace {

using namespace csxa;  // NOLINT

const char kDoc[] =
    "<Folder><Admin><Name>Jane</Name><SSN>123</SSN></Admin>"
    "<MedActs><Consult><Date>2004</Date><Diagnostic>flu</Diagnostic>"
    "</Consult><Analysis><Type>G3</Type><Cholesterol>260</Cholesterol>"
    "</Analysis></MedActs></Folder>";

std::string EventDump(const std::string& xml) {
  xml::SerializingHandler handler;
  CHECK_OK(xml::SaxParser::Parse(xml, &handler));
  return handler.output();
}

TEST(SaxParseSerializeRoundTrip) {
  CHECK_EQ(EventDump(kDoc), kDoc);
}

TEST(SaxEntitiesAndMarkup) {
  CHECK_EQ(EventDump("<?xml version=\"1.0\"?><a><!-- c -->x &lt;&amp;&gt; y"
                     "<b attr=\"v\">z</b></a>"),
           "<a>x &lt;&amp;&gt; y<b>z</b></a>");
  xml::SerializingHandler sink;
  CHECK(!xml::SaxParser::Parse("<a><b></a></b>", &sink).ok());
  CHECK(!xml::SaxParser::Parse("<a>", &sink).ok());
}

TEST(EscapingMatchesPerCharacterReference) {
  // Specials at the edges, adjacent, alone, and absent; the streaming
  // handler and the DOM serializer share one escaper.
  auto reference = [](const std::string& text) {
    std::string out;
    for (char c : text) {
      if (c == '<') {
        out += "&lt;";
      } else if (c == '>') {
        out += "&gt;";
      } else if (c == '&') {
        out += "&amp;";
      } else {
        out += c;
      }
    }
    return out;
  };
  for (const char* text :
       {"", "plain", "<", "&&", "<a&b>", "x<>&y", "tail&", "<head", "a > b"}) {
    xml::SerializingHandler handler;
    handler.OnValue(text, 1);
    CHECK_EQ(handler.output(), reference(text));
    std::string appended = "pre";
    xml::AppendEscapedText(text, &appended);
    CHECK_EQ(appended, "pre" + reference(text));
  }
  auto dom = xml::SaxParser::ParseToDom("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>");
  CHECK_OK(dom.status());
  if (dom.ok()) {
    CHECK_EQ(xml::Serialize(*dom.value()),
             "<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>");
  }
}

TEST(DomStatsSanity) {
  auto dom = xml::SaxParser::ParseToDom(kDoc);
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  auto stats = xml::ComputeStats(*dom.value());
  CHECK_EQ(stats.elements, size_t{11});
  CHECK_EQ(stats.text_nodes, size_t{6});
  CHECK_EQ(stats.max_depth, 4);
  CHECK_EQ(stats.distinct_tags, size_t{11});
}

std::string NavigateAll(const index::EncodedDocument& doc) {
  auto nav = index::DocumentNavigator::Open(&doc);
  CHECK_OK(nav.status());
  if (!nav.ok()) return "";
  xml::SerializingHandler handler;
  while (true) {
    auto item = nav.value()->Next();
    CHECK_OK(item.status());
    if (!item.ok()) return "";
    using K = index::DocumentNavigator::ItemKind;
    if (item.value().kind == K::kEnd) break;
    switch (item.value().kind) {
      case K::kOpen:
        handler.OnOpen(nav.value()->dictionary().Name(item.value().tag_id),
                       item.value().depth);
        break;
      case K::kValue:
        handler.OnValueView(item.value().value, item.value().depth);
        break;
      case K::kClose:
        handler.OnClose(nav.value()->dictionary().Name(item.value().tag_id),
                        item.value().depth);
        break;
      case K::kEnd:
        break;
    }
  }
  return handler.output();
}

TEST(EncodeNavigateRoundTrip) {
  auto dom = xml::SaxParser::ParseToDom(kDoc);
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  for (auto variant : {index::Variant::kTc, index::Variant::kTcs,
                       index::Variant::kTcsb, index::Variant::kTcsbr}) {
    auto doc = index::Encode(*dom.value(), variant);
    CHECK_OK(doc.status());
    if (!doc.ok()) continue;
    CHECK_EQ(NavigateAll(doc.value()), kDoc);
  }
}

TEST(SkipSubtree) {
  auto dom = xml::SaxParser::ParseToDom(kDoc);
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  for (auto variant : {index::Variant::kTcs, index::Variant::kTcsb,
                       index::Variant::kTcsbr}) {
    auto doc = index::Encode(*dom.value(), variant);
    CHECK_OK(doc.status());
    if (!doc.ok()) continue;
    auto nav = index::DocumentNavigator::Open(&doc.value());
    CHECK_OK(nav.status());
    if (!nav.ok()) continue;
    CHECK(nav.value()->CanSkip());

    // Open <Folder>, open <Admin>, then skip Admin's content: the next
    // events must be </Admin> and <MedActs>.
    auto open_folder = nav.value()->Next();
    CHECK_OK(open_folder.status());
    auto open_admin = nav.value()->Next();
    CHECK_OK(open_admin.status());
    CHECK_EQ(nav.value()->dictionary().Name(open_admin.value().tag_id), "Admin");
    CHECK_OK(nav.value()->SkipSubtree());
    auto close_admin = nav.value()->Next();
    CHECK_OK(close_admin.status());
    CHECK(close_admin.value().kind ==
          index::DocumentNavigator::ItemKind::kClose);
    CHECK_EQ(nav.value()->dictionary().Name(close_admin.value().tag_id), "Admin");
    auto open_med = nav.value()->Next();
    CHECK_OK(open_med.status());
    CHECK_EQ(nav.value()->dictionary().Name(open_med.value().tag_id), "MedActs");
  }
}

TEST(VariantSizesOrdered) {
  auto dom = xml::SaxParser::ParseToDom(kDoc);
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  uint64_t tcsbr = 0, tcsb = 0, nc = 0;
  for (auto [variant, out] :
       std::initializer_list<std::pair<index::Variant, uint64_t*>>{
           {index::Variant::kNc, &nc},
           {index::Variant::kTcsb, &tcsb},
           {index::Variant::kTcsbr, &tcsbr}}) {
    auto rep = index::MeasureVariant(*dom.value(), variant);
    CHECK_OK(rep.status());
    if (rep.ok()) *out = rep.value().total_bytes;
  }
  // The recursive encoding must not be larger than the flat bitmap one,
  // and both compress the original document.
  CHECK(tcsbr <= tcsb);
  CHECK(tcsb < nc);
}

TEST(NavigatorCheckpointRestore) {
  auto dom = xml::SaxParser::ParseToDom(kDoc);
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  auto doc = index::Encode(*dom.value(), index::Variant::kTcsbr);
  CHECK_OK(doc.status());
  if (!doc.ok()) return;
  auto nav = index::DocumentNavigator::Open(&doc.value());
  CHECK_OK(nav.status());
  if (!nav.ok()) return;

  for (int i = 0; i < 3; ++i) CHECK_OK(nav.value()->Next().status());
  auto checkpoint = nav.value()->Save();
  auto a = nav.value()->Next();
  CHECK_OK(a.status());
  // The item's text lives in the navigator's decode buffer until the next
  // SeekTo() or Next(): keep a copy.
  const std::string a_text(a.ok() ? a.value().value : std::string_view());
  CHECK_OK(nav.value()->SeekTo(checkpoint));
  auto b = nav.value()->Next();
  CHECK_OK(b.status());
  if (a.ok() && b.ok()) {
    CHECK(a.value().kind == b.value().kind);
    CHECK_EQ(a.value().tag_id, b.value().tag_id);
    CHECK_EQ(a_text, std::string(b.value().value));
  }
}

/// Records events as "O tag depth|V text depth|C tag depth|".
class EventLog : public xml::EventHandler {
 public:
  void OnOpen(const std::string& tag, int depth) override {
    log_ += "O " + tag + " " + std::to_string(depth) + "|";
  }
  void OnValue(const std::string& value, int depth) override {
    log_ += "V " + value + " " + std::to_string(depth) + "|";
  }
  void OnClose(const std::string& tag, int depth) override {
    log_ += "C " + tag + " " + std::to_string(depth) + "|";
  }
  const std::string& log() const { return log_; }

 private:
  std::string log_;
};

std::string Events(const std::string& xml) {
  EventLog log;
  const Status st = xml::SaxParser::Parse(xml, &log);
  return st.ok() ? log.log() : "error: " + st.message();
}

TEST(SaxEdgeCasesArePinned) {
  // Text between two tags is one pending run: comments, PIs and CDATA
  // sections inside it do not split it, and entities are decoded over
  // the joined run, so one split by a comment still decodes.
  CHECK_EQ(Events("<a>x&am<!-- c -->p;y</a>"), "O a 1|V x&y 2|C a 1|");
  CHECK_EQ(Events("<a>&lt<![CDATA[;]]></a>"), "O a 1|V < 2|C a 1|");
  CHECK_EQ(Events("<a>x<![CDATA[<y>]]>z</a>"), "O a 1|V x<y>z 2|C a 1|");
  CHECK_EQ(Events("<a><![CDATA[&amp;]]><![CDATA[]]></a>"),
           "O a 1|V & 2|C a 1|");
  CHECK_EQ(Events("<a>x<!--c-->y<?pi z?>z<!DOCTYPE q>w</a>"),
           "O a 1|V xyzw 2|C a 1|");
  CHECK_EQ(Events("<a>&unknown; &amp &#38;</a>"),
           "O a 1|V &unknown; &amp &#38; 2|C a 1|");
  // Whitespace-only runs vanish, CDATA included; others keep their spaces.
  CHECK_EQ(Events("<a> \n\t<b> x </b>\r\n<![CDATA[ ]]></a>"),
           "O a 1|O b 2|V  x  3|C b 2|C a 1|");
  CHECK_EQ(Events("  <a/>  "), "O a 1|C a 1|");
  // '>' and the other quote inside quoted attribute values.
  CHECK_EQ(Events("<a x=\"1>2\" y='>\"'>t<b z='/>'/></a >"),
           "O a 1|V t 2|O b 2|C b 2|C a 1|");
  // Text outside the root is dropped; a self-closing tag opens and closes.
  CHECK_EQ(Events("pre<?xml v?><r>1</r>post"), "O r 1|V 1 2|C r 1|");
  // Exact failure messages.
  CHECK_EQ(Events("<a><b></a></b>"),
           "error: mismatched closing tag </a>, expected </b>");
  CHECK_EQ(Events("</a>"), "error: mismatched closing tag </a>, expected </?>");
  CHECK_EQ(Events("<a><b></b>"), "error: unclosed element <a>");
  CHECK_EQ(Events("<a></a x>"), "error: malformed closing tag </a");
  CHECK_EQ(Events("<a x='1>"), "error: unterminated attribute value in <a");
  CHECK_EQ(Events("<a"), "error: unterminated opening tag <a");
  CHECK_EQ(Events("<a><"), "error: dangling '<' at end of input");
  CHECK_EQ(Events("<a>< b/></a>"), "error: invalid character after '<'");
  CHECK_EQ(Events("<a><!-- x</a>"), "error: unterminated comment");
  CHECK_EQ(Events("<a><![CDATA[x</a>"), "error: unterminated CDATA section");
  CHECK_EQ(Events("<a><?x</a>"), "error: unterminated processing instruction");
  CHECK_EQ(Events("<a><!DOCTYPE"), "error: unterminated '<!' declaration");
  auto two = xml::SaxParser::ParseToDom("<a/><b><c/></b>");
  CHECK_EQ(two.status().message(), "document has multiple root elements");
  auto none = xml::SaxParser::ParseToDom("<?xml?> text ");
  CHECK_EQ(none.status().message(), "document has no root element");
}

/// Documents whose encoded images are pinned: every corpus family at
/// seed 1 and 256 KiB, plus hostile shapes the generator never makes.
std::vector<std::pair<std::string, std::string>> PinnedDocuments() {
  std::vector<std::pair<std::string, std::string>> docs;
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    bench::CorpusSpec spec;
    spec.family = family;
    spec.seed = 1;
    spec.target_bytes = 256 << 10;
    docs.emplace_back(bench::FamilyName(family),
                      bench::GenerateCorpus(spec).xml);
  }
  std::string chain;
  for (int i = 0; i < 4096; ++i) chain += "<a>";
  chain += "bottom";
  for (int i = 0; i < 4096; ++i) chain += "</a>";
  docs.emplace_back("chain_4096", std::move(chain));
  std::string fan = "<r>";
  for (int i = 0; i < 100000; ++i) {
    fan += "<l>" + std::to_string(i % 97) + "</l>";
  }
  fan += "</r>";
  docs.emplace_back("fanout_100k", std::move(fan));
  std::string text = "<t><h>head</h>";
  while (text.size() < (3 << 20)) {
    text += "a &lt;b&gt; &amp; c <![CDATA[<raw> &amp; ]]>tail ";
  }
  text += "<h>foot</h></t>";
  docs.emplace_back("text_3mb", std::move(text));
  // 300 distinct tags: descendant-tag sets span several 64-bit words.
  std::string many = "<root>";
  std::vector<std::string> open;
  uint64_t state = 7;
  auto next = [&state] {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (int step = 0; step < 20000; ++step) {
    const uint64_t pick = next() % 8;
    if (pick < 4 && open.size() < 24) {
      open.push_back("t" + std::to_string(next() % 300));
      many += "<" + open.back() + ">";
    } else if (pick < 6) {
      many += "v" + std::to_string(next() % 1000) + "&amp;";
    } else if (!open.empty()) {
      many += "</" + open.back() + ">";
      open.pop_back();
    }
  }
  for (; !open.empty(); open.pop_back()) many += "</" + open.back() + ">";
  many += "</root>";
  docs.emplace_back("tags_300", std::move(many));
  return docs;
}

struct PinnedImage {
  const char* doc;
  index::Variant variant;
  const char* sha1;
  uint64_t text_bits;
  uint64_t structure_bits;
  uint64_t root_size_bits;
};

using V = index::Variant;

// Recorded from the earlier encoder, which built a pointer tree per
// document and recursed over it; any change here is a format change.
const PinnedImage kPinnedImages[] = {
    {"hospital", V::kTc, "033d2dd89e1fa1a81ea940c0f523d86bb0816f86",
     1158280, 98633, 0},
    {"hospital", V::kTcs, "ef148a8a94b6f16af1c6499a62d67bfa00cdb76f",
     1158280, 151488, 1307945},
    {"hospital", V::kTcsb, "01ce0c7806e0e2ad09a309a07f322fb7a2b3f06c",
     1158280, 184645, 1341083},
    {"hospital", V::kTcsbr, "6c52ce1fbc5f99dd21982116ffafca44ebce11f5",
     1158280, 154964, 1311402},
    {"wsu", V::kTc, "14b253d3fc8307fd5fc54a63dfaf55a36481d8d8",
     653888, 169944, 0},
    {"wsu", V::kTcs, "021e54a493152b2814b34395124f69bb82321c0e",
     653888, 263642, 916404},
    {"wsu", V::kTcsb, "39ae81af3a1f0cbef44a77a3c2b8b76e0250cee0",
     653888, 291501, 944250},
    {"wsu", V::kTcsbr, "2e89b96400b8e79dc086785aebcf0a725291cee6",
     653888, 280302, 933051},
    {"sigmod", V::kTc, "4c0863ef21bdd060581244d17441e11fc17dc805",
     990704, 107141, 0},
    {"sigmod", V::kTcs, "454dffb0233d26690df26f2de8d854f8aebcd4c2",
     990704, 170496, 1159922},
    {"sigmod", V::kTcsb, "680e296b673da879f4c680d3aeda46375b0da074",
     990704, 200424, 1189837},
    {"sigmod", V::kTcsbr, "a954d857d7733acba285303ba6157538a45c2f19",
     990704, 175834, 1165247},
    {"deep_nest", V::kTc, "2d290bdca6b12c1ecfb74e03958d63c7191c6c21",
     603400, 181957, 0},
    {"deep_nest", V::kTcs, "73074a864469d93ae7088509fc82707ab0013d45",
     603400, 354387, 957222},
    {"deep_nest", V::kTcsb, "31dbbe8283d405f1c15244377f2aaae9cecd1cab",
     603400, 414028, 1016856},
    {"deep_nest", V::kTcsbr, "73bfe575de09284eb3032afe5d464b46c760fb05",
     603400, 363698, 966526},
    {"predicate_storm", V::kTc, "658c7355ad23dc519ff39708ec2898d10c50fec6",
     1408048, 83729, 0},
    {"predicate_storm", V::kTcs, "17a6b21cd2b41c06399dd23ddb25a15ab53a324c",
     1408048, 143652, 1551007},
    {"predicate_storm", V::kTcsb, "5bffedec445082cc8d293de3b0be77ddc6a30048",
     1408048, 163310, 1570657},
    {"predicate_storm", V::kTcsbr, "4a4a31135e2e2b26fa010debdca4fadbb6735a4f",
     1408048, 146765, 1554112},
    {"flat_text", V::kTc, "3cd44baa08eae24c094ac71ebab6516947387b50",
     1915696, 53704, 0},
    {"flat_text", V::kTcs, "b93f5eb9773f128985bbd3ce18fa39ae7f675fdb",
     1915696, 95761, 2011044},
    {"flat_text", V::kTcsb, "e00b24ab0256eb1aff026ea5e21c0e7a1ee6e4c7",
     1915696, 103766, 2019044},
    {"flat_text", V::kTcsbr, "45bcac72fc8b3b3426520d5fadab851be9c68f62",
     1915696, 95738, 2011016},
    {"chain_4096", V::kTc, "ff05f70f52c6399fb26a280a04fd5ad0bea30bf3",
     48, 16567, 0},
    {"chain_4096", V::kTcs, "fc8c0dd7bd333e1518d396d9ecdc7fe3aa02a7a4",
     48, 69738, 69608},
    {"chain_4096", V::kTcsb, "a5c42f5581a2d4672cc11e5ce878ce0562072f3c",
     48, 74331, 74200},
    {"chain_4096", V::kTcsbr, "35629c9c11830cdf3f3e88d331ea0917a48788ae",
     48, 74331, 74200},
    {"fanout_100k", V::kTc, "989456a5b7cf195f0e1754cc01578c7ba05edca7",
     1517520, 1200221, 0},
    {"fanout_100k", V::kTcs, "f069d2fd779e6a08f8c1339617c423bd2f60bd4a",
     1517520, 3189909, 4707210},
    {"fanout_100k", V::kTcsb, "bf7627a73ab1a9b4f2ecb27c50bf28166c87875f",
     1517520, 3189911, 4707210},
    {"fanout_100k", V::kTcsbr, "ee201f89e950231c8ab2b1955348f407163fb95b",
     1517520, 3089911, 4607210},
    {"text_3mb", V::kTc, "dc09c74f014d2fa37f1fd30289a47c207ae44ecf",
     11812680, 277, 0},
    {"text_3mb", V::kTcs, "c5f96535c60e518f60266075bb90a86876bff20c",
     11812680, 312, 11812773},
    {"text_3mb", V::kTcsb, "0455deab870739c97c0b5332c5fa96d3814d1ad7",
     11812680, 314, 11812773},
    {"text_3mb", V::kTcsbr, "5b550a94954acd807f4a99c55e2b513bc43a53d4",
     11812680, 312, 11812771},
    {"tags_300", V::kTc, "1933431d6bdefc022691e5ea3e8b61d3af13ba3c",
     386232, 115110, 0},
    {"tags_300", V::kTcs, "19fe02c2712de272ca7e2a67e5d4e43cb92be3f6",
     386232, 165279, 532980},
    {"tags_300", V::kTcsb, "504ea81dc8cf5dd463394c75ab59d4a5cc1c756e",
     386232, 678250, 1045650},
    {"tags_300", V::kTcsbr, "4ffef9c4d51b923ae364bc0aeff5d337d3905861",
     386232, 219173, 586573},
};

std::string VariantEnum(index::Variant variant) {
  std::string name = index::VariantName(variant);
  for (size_t i = 1; i < name.size(); ++i) {
    name[i] = static_cast<char>(name[i] - 'A' + 'a');
  }
  return "V::k" + name;
}

std::string HexSha1(const std::vector<uint8_t>& bytes) {
  const crypto::Sha1Digest digest = crypto::Sha1::Hash(bytes);
  std::string hex;
  char buf[3];
  for (uint8_t b : digest) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    hex += buf;
  }
  return hex;
}

TEST(EncodedImagesArePinned) {
  size_t checked = 0;
  for (const auto& [name, xml] : PinnedDocuments()) {
    auto dom = xml::SaxParser::ParseToDom(xml);
    CHECK_OK(dom.status());
    if (!dom.ok()) continue;
    for (auto variant : {index::Variant::kTc, index::Variant::kTcs,
                         index::Variant::kTcsb, index::Variant::kTcsbr}) {
      auto doc = index::Encode(*dom.value(), variant);
      CHECK_OK(doc.status());
      if (!doc.ok()) continue;
      // The publish path parses straight into the flat tree; it must
      // produce the DOM path's image and accounting.
      auto direct = index::Encode(xml, variant);
      CHECK_OK(direct.status());
      if (direct.ok()) {
        CHECK(direct.value().bytes == doc.value().bytes);
        CHECK(direct.value().dictionary == doc.value().dictionary);
        CHECK_EQ(direct.value().stream_offset, doc.value().stream_offset);
        CHECK_EQ(direct.value().root_size_bits, doc.value().root_size_bits);
        CHECK_EQ(direct.value().text_bits, doc.value().text_bits);
        CHECK_EQ(direct.value().structure_bits, doc.value().structure_bits);
      }
      const PinnedImage got{name.c_str(), variant,
                            nullptr,       doc.value().text_bits,
                            doc.value().structure_bits,
                            doc.value().root_size_bits};
      const std::string sha1 = HexSha1(doc.value().bytes);
      const PinnedImage* want = nullptr;
      for (const PinnedImage& pin : kPinnedImages) {
        if (name == pin.doc && variant == pin.variant) want = &pin;
      }
      if (want == nullptr || sha1 != want->sha1 ||
          got.text_bits != want->text_bits ||
          got.structure_bits != want->structure_bits ||
          got.root_size_bits != want->root_size_bits) {
        testing::Fail(__FILE__, __LINE__,
                      "image differs from its pin; observed:\n    {\"" + name +
                          "\", " + VariantEnum(variant) + ", \"" +
                          sha1 + "\", " + std::to_string(got.text_bits) +
                          ", " + std::to_string(got.structure_bits) + ", " +
                          std::to_string(got.root_size_bits) + "},");
      }
      ++checked;
    }
  }
  CHECK_EQ(checked, sizeof(kPinnedImages) / sizeof(kPinnedImages[0]));
}

}  // namespace
