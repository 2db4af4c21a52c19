#ifndef CSXA_INDEX_DECODER_H_
#define CSXA_INDEX_DECODER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bitstream.h"
#include "common/status.h"
#include "common/tainted.h"
#include "index/encoded_document.h"
#include "xml/tag_dictionary.h"

namespace csxa::index {

/// Supplies the navigator with document bytes on demand. The in-memory
/// case needs no fetcher; the SOE pipeline plugs in one that pulls,
/// verifies and decrypts chunks from the untrusted terminal lazily, so
/// skipped regions are never transferred or decrypted.
class Fetcher {
 public:
  virtual ~Fetcher() = default;
  /// Ensures bytes [begin, end) of the encoded document are valid in the
  /// buffer the navigator reads from. Returns IntegrityError on tampering.
  virtual Status Ensure(uint64_t begin, uint64_t end) = 0;

  /// End of the contiguous span from `begin` whose bytes are already valid
  /// and stay valid for the fetcher's lifetime (verified bytes written
  /// once, never evicted). The navigator reads inside that span without
  /// calling Ensure(): such a call would find every byte held and do
  /// nothing. May report less than is held (a bounded scan), never more.
  /// Default: nothing is known held, so every read asks Ensure().
  virtual uint64_t HeldEnd(uint64_t begin) const { return begin; }

  /// Look-ahead hints from the consumer's skip oracle — pure prefetch
  /// policy (they steer what a batching fetcher pulls per round trip,
  /// never what Ensure() guarantees). Default: ignored.
  /// [begin, end) will be streamed soon.
  virtual void HintWanted(uint64_t begin, uint64_t end) {
    (void)begin;
    (void)end;
  }
  /// [begin, end) was skipped — cancel it out of planned read-ahead.
  virtual void HintExcluded(uint64_t begin, uint64_t end) {
    (void)begin;
    (void)end;
  }
  /// The consumer will stream the entire document.
  virtual void HintStreamAll() {}
  /// Granularity the fetcher transfers at (fragment size); consumers
  /// round prefetches to it so a batched read never straddles a unit the
  /// fetcher already holds.
  virtual uint64_t preferred_alignment() const { return 1; }
  /// Plaintext bytes this fetcher has materialized so far; deltas around a
  /// deferral splice give the honest re-read cost (bytes actually pulled,
  /// not bytes re-decoded — boundary fragments already held are free).
  virtual uint64_t bytes_fetched() const { return 0; }
};

/// Streaming decoder of an encoded document with skip support.
///
/// The navigator is the SOE-resident counterpart of the paper's SkipStack
/// (Section 4.1): it keeps, per open element, the decoded DescTag set and
/// the subtree extent, and decodes each element's metadata relative to its
/// parent's.
class DocumentNavigator {
 public:
  /// What Next() produced.
  enum class ItemKind { kOpen, kValue, kClose, kEnd };

  struct Item {
    ItemKind kind = ItemKind::kEnd;
    int depth = 0;              ///< Element depth (root = 1); value = +1.
    /// kOpen/kClose: the element's tag, an id of dictionary(). Items
    /// carry no name; a consumer that needs one (a verbatim stream to the
    /// output) looks it up with dictionary().Name(tag_id).
    xml::TagId tag_id = 0;
    /// kValue: the text, in the navigator's decode buffer. Valid until
    /// the next Next() or SeekTo(); a consumer that keeps it copies it.
    std::string_view value;
    /// kOpen only: DescTag set of the opened element (tags that can appear
    /// strictly below it); null for TC/TCS streams. Points into the
    /// navigator's top frame: valid until the next Next() or SeekTo().
    const std::vector<xml::TagId>* desc = nullptr;
    /// kOpen only: remaining bits of the element's children region — what
    /// SkipSubtree() would jump over without fetching. 0 for TC streams
    /// (no size fields).
    uint64_t subtree_bits = 0;
    /// kOpen only: stream-relative bit offset where the children region
    /// starts (the position right after the element's header). With
    /// subtree_bits and stream_offset() this locates the subtree's bytes,
    /// so the pipeline can hint the fetch planner. 0 for TC streams.
    uint64_t subtree_begin_bit = 0;
  };

  static_assert(std::is_trivially_copyable_v<Item>);

  /// Opens over a fully materialized document. `doc` must outlive the
  /// navigator.
  static Result<std::unique_ptr<DocumentNavigator>> Open(
      const EncodedDocument* doc);

  /// Opens over a verified document image whose contents materialize
  /// through `fetcher` (may be null). The buffer behind `doc` must stay
  /// valid and fixed-size; the fetcher fills it in place. Taking a
  /// common::VerifiedPlaintext (not raw bytes) is the typestate wall: a
  /// navigator can only ever read bytes the Merkle verification path
  /// vouched for.
  static Result<std::unique_ptr<DocumentNavigator>> OpenBuffer(
      const common::VerifiedPlaintext& doc, Fetcher* fetcher);

  /// Advances to the next event.
  Result<Item> Next();

  /// True if the stream supports subtree skipping (TCS and richer).
  bool CanSkip() const { return variant_ != Variant::kTc; }

  /// Skips the remaining children of the most recently opened element; the
  /// following Next() yields that element's kClose. Skipped bytes are never
  /// fetched or decoded.
  Status SkipSubtree();

  /// Skips the most recently opened element whole: its remaining children
  /// and its close, which the caller accounts for itself. The following
  /// Next() yields the element's next sibling (or its parent's close).
  Status SkipElement();

  /// Immutable decode-state snapshot for pending-subtree re-reads
  /// (Section 5: parts left aside are read back later without re-analyzing
  /// anything else). Holds everything relative decoding needs to re-enter
  /// the stream at an element-open position: the bit offset, the open
  /// element path (tag + subtree extent + size-field width per frame, with
  /// the TCSBR relative-decoding tag context of each ancestor), and — for
  /// TC streams, which have no frames — the open-tag stack. Size and
  /// SeekTo() cost are O(depth), never O(document). The frames' contexts
  /// share one flat array, so a snapshot is three vectors at any depth.
  struct Checkpoint {
    size_t bit_pos = 0;
    int depth = 0;
    bool started = false;
    struct Frame {
      xml::TagId tag = 0;
      uint64_t end_bit = 0;
      int width = 0;
      /// Length of the frame's children decode context (TCSBR): the
      /// frame's slice of `ctx` follows those of the frames below it.
      size_t ctx_size = 0;
    };
    std::vector<Frame> frames;
    std::vector<xml::TagId> ctx;       // every frame's context, in order
    std::vector<xml::TagId> tc_stack;  // TC-only open-element tags
  };
  Checkpoint Save() const;
  /// Save() into `checkpoint`, reusing the storage it holds.
  void SaveTo(Checkpoint* checkpoint) const;

  /// Re-enters the stream at `checkpoint`, which must have been produced by
  /// Save() on a navigator over the same encoded document. The next Next()
  /// decodes exactly what it would have decoded there; nothing between the
  /// current position and the target is fetched or replayed.
  Status SeekTo(const Checkpoint& checkpoint);

  /// Total bits consumed by reads (skips excluded).
  uint64_t bits_read() const { return bits_read_; }

  const xml::TagDictionary& dictionary() const { return dict_; }
  Variant variant() const { return variant_; }
  /// Byte offset of the encoded event stream within the document image
  /// (everything before it is the header + tag dictionary). Converts
  /// stream-relative bit positions (Item::subtree_begin_bit, checkpoints)
  /// into document byte offsets for the fetch planner.
  size_t stream_offset() const { return stream_offset_; }

 private:
  DocumentNavigator() = default;

  Status Init(const uint8_t* data, size_t size, Fetcher* fetcher);
  /// True when the `bits` at the cursor lie inside the held span.
  bool Held(int bits) const {
    const size_t pos = in_.position();
    return pos >= held_begin_bit_ &&
           pos + static_cast<size_t>(bits) <= held_end_bit_;
  }
  /// Ensures the `unit_bits` at the cursor, which leave the held span —
  /// exactly the demand a unit-at-a-time reader makes there — and learns
  /// the span that starts at them.
  Status Demand(int unit_bits);
  /// How many (1..count) consecutive `unit_bits`-wide units at the cursor
  /// are readable now; demands the first one if it leaves the held span.
  Result<uint64_t> HeldRun(int unit_bits, uint64_t count);
  /// Reads a `width`-bit header field. Widths up to 56 whose 8-byte
  /// word at the cursor's byte lies inside the held span come from one
  /// load (BitReader::ReadWordBits); every other read takes the checked
  /// path, which demands bytes that leave the span.
  Result<uint64_t> ReadBits(int width) {
    const size_t pos = in_.position();
    if (width <= 56 && pos >= held_begin_bit_ &&
        (pos / 8 + 8) * 8 <= held_end_bit_) {
      bits_read_ += static_cast<uint64_t>(width);
      return in_.ReadWordBits(width);
    }
    return ReadBitsChecked(width);
  }
  Result<uint64_t> ReadBitsChecked(int width);
  /// Decodes `len` text bytes into text_ and returns a view of them.
  Result<std::string_view> ReadText(uint64_t len);
  /// Reads an n-bit DescTag bitmap a word at a time: set bit i adds
  /// (*ctx)[i] — or tag i when ctx is null (the whole dictionary) — to out.
  Status ReadDescTags(size_t n, const std::vector<xml::TagId>* ctx,
                      std::vector<xml::TagId>* out);
  Result<uint64_t> ReadTcVarint();

  Result<Item> NextPacked();
  /// An empty DescTag vector, recycled from a popped frame when one is
  /// spare.
  std::vector<xml::TagId> TakeSpareCtx();
  /// One open element: its tag, where its children region ends, the width
  /// of its children's size fields and its DescTag set (the children's
  /// decode context under TCSBR).
  struct Frame {
    xml::TagId tag = 0;
    uint64_t end_bit = 0;
    int width = 0;
    std::vector<xml::TagId> ctx;
  };

  /// Opens an element whose children region starts at the cursor: pushes
  /// its frame with `ctx` as its DescTag set and fills `item` as its kOpen.
  void PushFrame(xml::TagId tag, uint64_t size_bits,
                 std::vector<xml::TagId> ctx, Item* item);
  Result<Item> NextTc();
  /// Closes the top frame (its ctx vector goes to spare_ctx_).
  void PopFrame();

  Fetcher* fetcher_ = nullptr;
  Variant variant_ = Variant::kTcsbr;
  xml::TagDictionary dict_;
  size_t stream_offset_ = 0;  // bytes
  uint64_t root_size_bits_ = 0;

  /// The event stream; position() is the decode cursor, in bits from the
  /// stream start.
  BitReader in_;
  /// Stream bits [held_begin_bit_, held_end_bit_) are verified and held
  /// (as the fetcher last reported; write-once, so they stay so): reads
  /// inside skip Ensure(). The whole stream when there is no fetcher.
  size_t held_begin_bit_ = 0;
  size_t held_end_bit_ = 0;
  bool started_ = false;
  bool done_ = false;
  int depth_ = 0;
  std::vector<Frame> frames_;
  /// Emptied `ctx` vectors of popped frames, reused by the next opens so
  /// an element open allocates nothing once the stack has been this deep.
  std::vector<std::vector<xml::TagId>> spare_ctx_;
  std::vector<xml::TagId> tc_stack_;  // TC-only open-element tags
  /// The decode buffer every kValue item's text points into: reused, so
  /// a text allocates only when it is the longest seen so far.
  std::string text_;

  uint64_t bits_read_ = 0;
};

}  // namespace csxa::index

#endif  // CSXA_INDEX_DECODER_H_
