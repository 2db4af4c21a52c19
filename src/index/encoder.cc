#include "index/encoder.h"

#include <bit>
#include <vector>

#include "common/bitstream.h"
#include "xml/flat_tree.h"

namespace csxa::index {

namespace {

using xml::FlatTree;
using xml::TagId;
using Record = FlatTree::Record;

/// Members of a descendant-tag bitset.
size_t CountTags(const uint64_t* bits, uint32_t words) {
  size_t n = 0;
  for (uint32_t w = 0; w < words; ++w) n += std::popcount(bits[w]);
  return n;
}

/// Members of `ctx` below `tag` (which is a member): its index in the
/// sorted context.
uint64_t RankIn(const uint64_t* ctx, TagId tag) {
  uint64_t rank = CountTags(ctx, tag / 64);
  // The word's bits above (= tags before) `tag`.
  return rank + std::popcount(ctx[tag / 64] & ~(~uint64_t{0} >> (tag % 64)));
}

/// Writes one bit per member of `ctx` (`ctx_words` words), in tag order:
/// whether that tag is in `bits` (`words` <= ctx_words words).
void WriteBitmap(const uint64_t* ctx, uint32_t ctx_words, const uint64_t* bits,
                 uint32_t words, BitWriter* out) {
  for (uint32_t w = 0; w < ctx_words; ++w) {
    const uint64_t mask = ctx[w];
    if (mask == 0) continue;
    const uint64_t have = w < words ? bits[w] : 0;
    const int k = std::popcount(mask);
    if (mask == ~uint64_t{0} << (64 - k)) {  // The word's first k tags.
      out->WriteBits(have >> (64 - k), k);
      continue;
    }
    // Gather the masked bits; the lowest mask bit is the word's last tag
    // and lands in the lowest output bit.
    uint64_t gathered = 0;
    int j = 0;
    for (uint64_t m = mask; m != 0; m &= m - 1, ++j) {
      gathered |= ((have >> std::countr_zero(m)) & 1) << j;
    }
    out->WriteBits(gathered, k);
  }
}

/// Pushes the children of element `i` last to first, so the first pops
/// next: the last child ends just before `i`, and each child's previous
/// sibling just before that child's `first`.
void PushChildren(const std::vector<Record>& records, uint32_t i,
                  std::vector<uint32_t>* stack) {
  for (uint32_t end = i; end > records[i].first;
       end = records[end - 1].first) {
    stack->push_back(end - 1);
  }
}

/// Per element of a sized variant: the children region's size in bits
/// and the width W(e) of its children's size and length fields.
struct Sizes {
  std::vector<uint64_t> size;
  std::vector<uint8_t> width;
};

/// One post-order sweep. size[e] first gathers the width-independent bits
/// of e's children (markers, tag codes, bitmaps, text payloads, their own
/// settled sizes); fields[e] counts the children, each of which carries
/// one field of width W(e). A subtree's bits depend only on widths inside
/// it, so when the sweep reaches e its children are final and e's width is
/// a one-variable fixed point: W = BitWidth(fields * W + fixed), from
/// W = 64. The right side is monotone in W, so W only shrinks and stops
/// within 64 steps (in practice two or three), at the greatest fixed
/// point: the one a whole-tree iteration from 64 reaches.
Sizes SettleSizes(const FlatTree& tree, Variant variant) {
  const std::vector<Record>& records = tree.records();
  const size_t nt = tree.dictionary().size();
  Sizes out{std::vector<uint64_t>(records.size(), 0),
            std::vector<uint8_t>(records.size(), 0)};
  std::vector<uint32_t> fields(records.size(), 0);
  for (uint32_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    uint64_t bits;
    if (r.is_text()) {
      bits = 1 + 8 * uint64_t{r.length};
    } else {
      const uint64_t fixed = out.size[i];
      const uint64_t n = fields[i];
      int w = 64;
      uint64_t s = n * 64 + fixed;
      for (int next = BitWidth(s); next != w; next = BitWidth(s)) {
        w = next;
        s = n * static_cast<uint64_t>(w) + fixed;
      }
      out.size[i] = s;
      out.width[i] = static_cast<uint8_t>(w);
      if (i == tree.root()) break;
      // TCSBR codes tags and bitmaps against the parent's descendant
      // set; TCS and TCSB against the dictionary.
      const Record& p = records[r.parent];
      const size_t ctx = variant == Variant::kTcsbr
                             ? CountTags(tree.desc(p), p.length)
                             : nt;
      bits = 2 + static_cast<uint64_t>(BitsFor(ctx)) + s;
      if (r.internal() && variant != Variant::kTcs) bits += ctx;
    }
    out.size[r.parent] += bits;
    ++fields[r.parent];
  }
  return out;
}

/// TC: 2-bit markers (01 element, 10 text, 00 end of children),
/// dictionary-wide tag codes, nibble varint text lengths. A stack entry
/// with kEnd set stands for its element's end marker.
void WriteTc(const FlatTree& tree, BitWriter* out) {
  constexpr uint32_t kEnd = uint32_t{1} << 31;
  const std::vector<Record>& records = tree.records();
  const int tag_bits = BitsFor(tree.dictionary().size());
  std::vector<uint32_t> stack{tree.root()};
  while (!stack.empty()) {
    const uint32_t top = stack.back();
    stack.pop_back();
    if (top & kEnd) {
      out->WriteBits(0b00, 2);
      continue;
    }
    const Record& r = records[top];
    if (r.is_text()) {
      out->WriteBits(0b10, 2);
      // Little-endian 4-bit groups, each after a continuation bit.
      uint64_t v = r.length;
      do {
        const uint64_t group = v & 0xF;
        v >>= 4;
        out->WriteBits((uint64_t{v != 0} << 4) | group, 5);
      } while (v != 0);
      out->WriteBytes(tree.text(r));
      continue;
    }
    out->WriteBits(0b01, 2);
    out->WriteBits(r.tag, tag_bits);
    stack.push_back(top | kEnd);
    PushChildren(records, top, &stack);
  }
}

/// TCS / TCSB / TCSBR, per the grammar in encoded_document.h.
void WriteSized(const FlatTree& tree, Variant variant, const Sizes& sizes,
               BitWriter* out) {
  const std::vector<Record>& records = tree.records();
  const size_t nt = tree.dictionary().size();
  const int dict_tag_bits = BitsFor(nt);
  // The root's context is the whole dictionary, and so is every
  // element's under TCSB.
  const auto full_words = static_cast<uint32_t>((nt + 63) / 64);
  std::vector<uint64_t> full(full_words, ~uint64_t{0});
  if (nt % 64 != 0) full.back() = ~uint64_t{0} << (64 - nt % 64);

  std::vector<uint32_t> stack{tree.root()};
  while (!stack.empty()) {
    const uint32_t i = stack.back();
    stack.pop_back();
    const Record& r = records[i];
    const bool is_root = i == tree.root();
    const int parent_width = is_root ? 0 : sizes.width[r.parent];
    if (r.is_text()) {
      // kind = 0, then the length in the parent's width (it fits:
      // 8 * length <= the parent's size).
      out->WriteBits(r.length, 1 + parent_width);
      out->WriteBytes(tree.text(r));
      continue;
    }
    out->WriteBits(0b10 | uint64_t{r.internal()}, 2);  // kind = 1, internal
    if (!is_root) out->WriteBits(sizes.size[i], parent_width);
    const bool relative = variant == Variant::kTcsbr && !is_root;
    const uint64_t* ctx =
        relative ? tree.desc(records[r.parent]) : full.data();
    const uint32_t ctx_words =
        relative ? records[r.parent].length : full_words;
    if (relative) {
      out->WriteBits(RankIn(ctx, r.tag), BitsFor(CountTags(ctx, ctx_words)));
    } else {
      out->WriteBits(r.tag, dict_tag_bits);
    }
    if (r.internal() && variant != Variant::kTcs) {
      WriteBitmap(ctx, ctx_words, tree.desc(r), r.length, out);
    }
    PushChildren(records, i, &stack);
  }
}

/// Encodes a flat tree (consumed: the image takes its dictionary). The
/// header goes into the same writer as the stream, so the image is never
/// copied.
Result<EncodedDocument> EncodeTree(FlatTree tree, Variant variant) {
  if (variant == Variant::kNc) {
    return Status::InvalidArgument(
        "NC is raw XML text, not a binary encoding; use MeasureVariant");
  }
  const bool sized = variant != Variant::kTc;
  const Sizes sizes = sized ? SettleSizes(tree, variant) : Sizes{};
  const size_t nt = tree.dictionary().size();
  const std::vector<uint8_t> dict_bytes = tree.dictionary().Serialize();
  const uint64_t root_bits = sized ? sizes.size[tree.root()] : 0;
  const size_t stream_offset = format::kMagicSize + 1 + dict_bytes.size() + 8;

  BitWriter out;
  // Exact for the sized variants (the root's header, then its children
  // region); TC's markers and varints take at most 44 bits a record.
  out.Reserve(stream_offset * 8 +
              (sized ? 2 + BitsFor(nt) + nt + root_bits
                     : 8 * tree.text_size() +
                           tree.records().size() * (BitsFor(nt) + 44)));
  out.WriteBytes(std::string_view(format::kMagic, format::kMagicSize));
  out.WriteBits(static_cast<uint8_t>(variant), 8);
  out.WriteBytes(dict_bytes.data(), dict_bytes.size());
  out.WriteBits(root_bits, 64);
  if (sized) {
    WriteSized(tree, variant, sizes, &out);
  } else {
    WriteTc(tree, &out);
  }

  EncodedDocument doc;
  doc.variant = variant;
  doc.stream_offset = stream_offset;
  doc.root_size_bits = root_bits;
  doc.text_bits = 8 * tree.text_size();
  doc.structure_bits = out.bit_size() - doc.text_bits;
  doc.bytes = out.TakeBytes();
  doc.dictionary = tree.TakeDictionary();
  return doc;
}

}  // namespace

Result<EncodedDocument> Encode(std::string_view xml, Variant variant) {
  CSXA_ASSIGN_OR_RETURN(FlatTree tree, FlatTree::Parse(xml));
  return EncodeTree(std::move(tree), variant);
}

Result<EncodedDocument> Encode(const xml::Node& root, Variant variant) {
  CSXA_ASSIGN_OR_RETURN(FlatTree tree, FlatTree::Flatten(root));
  return EncodeTree(std::move(tree), variant);
}

}  // namespace csxa::index
