// Checkpoint round-trip property tests: for every element-open position of
// every encoding variant, a checkpoint saved there must re-enter the
// stream via SeekTo() and decode a byte-identical subtree — the contract
// the deferred-subtree re-reads (skip-now-reread-later) are built on.

#include <string>
#include <vector>

#include "index/decoder.h"
#include "index/encoder.h"
#include "testing.h"
#include "xml/sax_parser.h"

namespace {

using namespace csxa;  // NOLINT

using Nav = index::DocumentNavigator;

/// Canonical one-line rendering of a navigator item, for byte-exact
/// subtree comparison; tag names come from `nav`'s dictionary.
std::string Render(const Nav& nav, const Nav::Item& item) {
  switch (item.kind) {
    case Nav::ItemKind::kOpen:
      return "<" + nav.dictionary().Name(item.tag_id) + "@" +
             std::to_string(item.depth) + ">";
    case Nav::ItemKind::kValue:
      return "[" + std::string(item.value) + "@" +
             std::to_string(item.depth) + "]";
    case Nav::ItemKind::kClose:
      return "</" + nav.dictionary().Name(item.tag_id) + "@" +
             std::to_string(item.depth) + ">";
    case Nav::ItemKind::kEnd:
      return "<eof>";
  }
  return "?";
}

const char* const kDocs[] = {
    // The running example's shape: nesting, repeated tags, mixed text.
    "<Folder><Admin><Name>Jane</Name><SSN>123-45</SSN></Admin>"
    "<MedActs>"
    "<Analysis><Type>G3</Type><Cholesterol>260</Cholesterol>"
    "<Comments>bad</Comments></Analysis>"
    "<Analysis><Comments>fine</Comments><Type>G2</Type></Analysis>"
    "</MedActs></Folder>",
    // Deep recursion with the same tag (stresses relative decoding).
    "<a><a><a><b>x</b><a>y</a></a><b><a>z</a></b></a><b>t</b></a>",
    // Wide and flat with empty elements.
    "<r><p/><q>1</q><p/><q>2</q><p><q>3</q></p></r>",
};

TEST(EveryOpenCheckpointRoundTrips) {
  for (const char* xml : kDocs) {
    auto dom = xml::SaxParser::ParseToDom(xml);
    CHECK_OK(dom.status());
    if (!dom.ok()) continue;
    for (auto variant : {index::Variant::kTc, index::Variant::kTcs,
                         index::Variant::kTcsb, index::Variant::kTcsbr}) {
      auto doc = index::Encode(*dom.value(), variant);
      CHECK_OK(doc.status());
      if (!doc.ok()) continue;
      auto nav = Nav::Open(&doc.value());
      CHECK_OK(nav.status());
      if (!nav.ok()) continue;

      // One streaming pass. At each element open, save a checkpoint; every
      // event is appended to the transcript of each still-open element, so
      // afterwards checkpoint #i pairs with the exact event sequence of its
      // children region (close of the element itself excluded).
      struct Pending {
        Nav::Checkpoint cp;
        int depth;
        std::string transcript;
      };
      std::vector<Pending> open_stack;
      std::vector<Pending> finished;
      while (true) {
        auto item = nav.value()->Next();
        CHECK_OK(item.status());
        if (!item.ok() || item.value().kind == Nav::ItemKind::kEnd) break;
        if (item.value().kind == Nav::ItemKind::kClose &&
            !open_stack.empty() &&
            open_stack.back().depth == item.value().depth) {
          finished.push_back(std::move(open_stack.back()));
          open_stack.pop_back();
        }
        for (Pending& p : open_stack) {
          p.transcript += Render(*nav.value(), item.value());
        }
        if (item.value().kind == Nav::ItemKind::kOpen) {
          open_stack.push_back(
              {nav.value()->Save(), item.value().depth, std::string()});
        }
      }
      CHECK_EQ(open_stack.size(), size_t{0});
      CHECK(!finished.empty());

      // Re-enter each checkpoint on a fresh navigator and re-decode: the
      // subtree must be byte-identical to what streaming produced.
      for (const Pending& p : finished) {
        auto renav = Nav::Open(&doc.value());
        CHECK_OK(renav.status());
        if (!renav.ok()) continue;
        CHECK_OK(renav.value()->SeekTo(p.cp));
        std::string replay;
        while (true) {
          auto item = renav.value()->Next();
          CHECK_OK(item.status());
          if (!item.ok() || item.value().kind == Nav::ItemKind::kEnd) break;
          if (item.value().kind == Nav::ItemKind::kClose &&
              item.value().depth == p.depth) {
            break;
          }
          replay += Render(*renav.value(), item.value());
        }
        CHECK_EQ(replay, p.transcript);
      }

      // A checkpoint can also be re-entered on the *same* navigator after
      // it ran to the end (the splicer's exact usage pattern).
      if (!finished.empty()) {
        const Pending& p = finished.front();
        CHECK_OK(nav.value()->SeekTo(p.cp));
        std::string replay;
        while (true) {
          auto item = nav.value()->Next();
          CHECK_OK(item.status());
          if (!item.ok() || item.value().kind == Nav::ItemKind::kEnd) break;
          if (item.value().kind == Nav::ItemKind::kClose &&
              item.value().depth == p.depth) {
            break;
          }
          replay += Render(*nav.value(), item.value());
        }
        CHECK_EQ(replay, p.transcript);
      }
    }
  }
}

TEST(SeekToRejectsOutOfRangeCheckpoints) {
  auto dom = xml::SaxParser::ParseToDom("<a><b>x</b></a>");
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  auto doc = index::Encode(*dom.value(), index::Variant::kTcsbr);
  CHECK_OK(doc.status());
  if (!doc.ok()) return;
  auto nav = Nav::Open(&doc.value());
  CHECK_OK(nav.status());
  if (!nav.ok()) return;
  Nav::Checkpoint bogus;
  bogus.bit_pos = static_cast<size_t>(-1) / 2;
  bogus.started = true;
  CHECK(!nav.value()->SeekTo(bogus).ok());
}

}  // namespace
