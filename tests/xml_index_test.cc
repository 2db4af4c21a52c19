// XML and Skip-index layer tests: SAX parsing, serialization round-trips,
// and encode/navigate round-trips plus subtree skipping across the
// structure-encoding variants of Figure 8.

#include <memory>
#include <string>

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

}  // namespace
