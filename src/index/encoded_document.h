#ifndef CSXA_INDEX_ENCODED_DOCUMENT_H_
#define CSXA_INDEX_ENCODED_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "xml/tag_dictionary.h"

namespace csxa::index {

/// Structure-encoding variants compared in Figure 8 of the paper.
///
/// - kNc    : original non-compressed XML text (reference point only).
/// - kTc    : dictionary tag compression; explicit end-of-children markers.
/// - kTcs   : TC + per-subtree size fields (skipping becomes possible,
///            closing tags disappear).
/// - kTcsb  : TCS + a bitmap of descendant tags per internal element.
/// - kTcsbr : the Skip index — TCSB with *recursive* encoding: tag codes,
///            descendant bitmaps and size fields are all expressed relative
///            to the parent element's metadata, shrinking as the decoder
///            descends.
enum class Variant : uint8_t {
  kNc = 0,
  kTc = 1,
  kTcs = 2,
  kTcsb = 3,
  kTcsbr = 4,
};

const char* VariantName(Variant variant);

/// Decoded header of an encoded document (everything the SOE must know
/// before consuming the bit stream).
struct HeaderInfo {
  Variant variant = Variant::kTcsbr;
  xml::TagDictionary dictionary;
  size_t stream_offset = 0;     ///< Byte offset where the bit stream starts.
  uint64_t root_size_bits = 0;  ///< Children-region bits of the root.
};

/// Parses a header from a raw buffer. Returns Corruption if truncated or
/// malformed; a caller with a lazily materialized buffer can grow the
/// ensured prefix and retry.
Result<HeaderInfo> ParseHeaderInfo(const uint8_t* data, size_t size);

/// A binary-encoded document: header (magic, variant, tag dictionary, root
/// size) followed by the bit-packed structure stream.
///
/// Stream grammar (TCS / TCSB / TCSBR), MSB-first bits:
///
///   root     := kind=1, internal, tag, [tagarray], children
///   node     := kind(1) ( element | text )
///   element  := internal(1) size(W(parent)) tag [tagarray] children
///   text     := length(W(parent)) payload(8*length)
///
/// `size` counts the bits of the children region only: a decoder that has
/// read an element's tag (needed to raise the open event) and its tagarray
/// (needed for token filtering) can skip the whole subtree by advancing
/// `size` bits. W(e) = BitWidth(size(e)) is the field width used by e's
/// children; the root's size sits in the header as a u64. Text lengths are
/// byte counts and always fit W(parent) since 8*len <= size(parent).
///
/// TCSBR narrows `tag` to an index into the parent's descendant-tag set and
/// `tagarray` to one bit per member of that set; TCS/TCSB use
/// dictionary-wide widths. TC uses 2-bit node markers (01 element,
/// 10 text, 00 end-of-children), dictionary-wide tag codes and nibble
/// varint text lengths.
struct EncodedDocument {
  Variant variant = Variant::kTcsbr;
  xml::TagDictionary dictionary;
  std::vector<uint8_t> bytes;     ///< Full image: header + stream.
  size_t stream_offset = 0;       ///< Byte offset where the bit stream starts.
  uint64_t root_size_bits = 0;    ///< Children-region bits of the root.

  // Size accounting for Figure 8.
  uint64_t structure_bits = 0;    ///< Everything except text payloads.
  uint64_t text_bits = 0;         ///< 8 * total text bytes.
};

namespace format {
inline constexpr char kMagic[4] = {'C', 'S', 'X', 'A'};
inline constexpr size_t kMagicSize = 4;
// Header: magic(4) variant(1) dictionary(var) root_size_bits(8).
}  // namespace format

}  // namespace csxa::index

#endif  // CSXA_INDEX_ENCODED_DOCUMENT_H_
