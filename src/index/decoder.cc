#include "index/decoder.h"

#include <algorithm>

namespace csxa::index {

Result<std::unique_ptr<DocumentNavigator>> DocumentNavigator::Open(
    const EncodedDocument* doc) {
  // Owner-side trusted path: the document never crossed the terminal, so
  // there is nothing to verify and no witness to demand.
  auto nav = std::unique_ptr<DocumentNavigator>(new DocumentNavigator());
  CSXA_RETURN_NOT_OK(nav->Init(doc->bytes.data(), doc->bytes.size(), nullptr));
  return nav;
}

Result<std::unique_ptr<DocumentNavigator>> DocumentNavigator::OpenBuffer(
    const common::VerifiedPlaintext& doc, Fetcher* fetcher) {
  auto nav = std::unique_ptr<DocumentNavigator>(new DocumentNavigator());
  CSXA_RETURN_NOT_OK(nav->Init(doc.data(), doc.size(), fetcher));
  return nav;
}

Status DocumentNavigator::Init(const uint8_t* data, size_t size,
                               Fetcher* fetcher) {
  fetcher_ = fetcher;
  // Materialize enough prefix to parse the header, growing on demand. Start
  // small: over-ensuring here defeats the lazy fetch path (skipped subtrees
  // must never be transferred), and headers are dominated by the tag
  // dictionary, which stays tiny. The prefetch is rounded up to the
  // fetcher's transfer granularity (fragment size): an unaligned prefetch
  // would end mid-fragment, and the follow-up read of the straddled
  // fragment would re-plan bytes the fetcher already holds.
  const size_t align =
      fetcher_ != nullptr
          ? static_cast<size_t>(std::max<uint64_t>(
                1, fetcher_->preferred_alignment()))
          : 1;
  auto round_up = [align, size](size_t n) {
    return std::min(size, (n + align - 1) / align * align);
  };
  size_t ensured = round_up(std::min<size_t>(size, 256));
  while (true) {
    if (fetcher_ != nullptr) CSXA_RETURN_NOT_OK(fetcher_->Ensure(0, ensured));
    auto info = ParseHeaderInfo(data, ensured);
    if (info.ok()) {
      variant_ = info.value().variant;
      dict_ = std::move(info.value().dictionary);
      stream_offset_ = info.value().stream_offset;
      root_size_bits_ = info.value().root_size_bits;
      break;
    }
    if (ensured == size) return info.status();
    ensured = round_up(ensured * 2);
  }
  in_ = BitReader(data + stream_offset_, size - stream_offset_);
  // Without a fetcher the whole image is resident from the start.
  if (fetcher_ == nullptr) held_end_bit_ = in_.size_bits();
  return Status::OK();
}

Status DocumentNavigator::Demand(int unit_bits) {
  const size_t pos = in_.position();
  if (static_cast<size_t>(unit_bits) > in_.size_bits() - pos) {
    return Status::Corruption("encoded stream truncated");
  }
  // The unit leaves the held span: ask for exactly this unit, as a
  // unit-at-a-time reader would, then learn how far the verified bytes
  // now reach from it.
  const uint64_t begin = stream_offset_ + pos / 8;
  CSXA_RETURN_NOT_OK(fetcher_->Ensure(
      begin, stream_offset_ + (pos + static_cast<size_t>(unit_bits) + 7) / 8));
  held_begin_bit_ = pos / 8 * 8;
  held_end_bit_ = std::min<uint64_t>(
      in_.size_bits(),
      (std::max(fetcher_->HeldEnd(begin), begin) - stream_offset_) * 8);
  return Status::OK();
}

Result<uint64_t> DocumentNavigator::HeldRun(int unit_bits, uint64_t count) {
  if (!Held(unit_bits)) CSXA_RETURN_NOT_OK(Demand(unit_bits));
  const size_t pos = in_.position();
  const uint64_t ahead =
      held_end_bit_ > pos
          ? (held_end_bit_ - pos) / static_cast<uint64_t>(unit_bits)
          : 0;
  // The demanded unit is readable even when the fetcher reports no span.
  return std::clamp<uint64_t>(ahead, 1, count);
}

Result<uint64_t> DocumentNavigator::ReadBitsChecked(int width) {
  if (width == 0) return uint64_t{0};
  if (!Held(width)) CSXA_RETURN_NOT_OK(Demand(width));
  uint64_t v = 0;
  CSXA_RETURN_NOT_OK(in_.ReadBits(width, &v));
  bits_read_ += static_cast<uint64_t>(width);
  return v;
}

Result<std::string_view> DocumentNavigator::ReadText(uint64_t len) {
  text_.clear();
  text_.reserve(
      std::min<uint64_t>(len, (in_.size_bits() - in_.position()) / 8));
  while (len > 0) {
    CSXA_ASSIGN_OR_RETURN(const uint64_t n, HeldRun(8, len));
    CSXA_RETURN_NOT_OK(in_.ReadBytes(n, &text_));
    bits_read_ += n * 8;
    len -= n;
  }
  return std::string_view(text_);
}

Status DocumentNavigator::ReadDescTags(size_t n,
                                       const std::vector<xml::TagId>* ctx,
                                       std::vector<xml::TagId>* out) {
  for (size_t i = 0; i < n;) {
    CSXA_ASSIGN_OR_RETURN(const uint64_t run,
                          HeldRun(1, std::min<uint64_t>(n - i, 64)));
    const int width = static_cast<int>(run);
    uint64_t word = 0;
    CSXA_RETURN_NOT_OK(in_.ReadBits(width, &word));
    bits_read_ += run;
    for (int b = width - 1; b >= 0; --b, ++i) {
      if ((word >> b) & 1) {
        out->push_back(ctx != nullptr ? (*ctx)[i]
                                      : static_cast<xml::TagId>(i));
      }
    }
  }
  return Status::OK();
}

Result<uint64_t> DocumentNavigator::ReadTcVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    auto cont = ReadBits(1);
    if (!cont.ok()) return cont.status();
    auto group = ReadBits(4);
    if (!group.ok()) return group.status();
    v |= group.value() << shift;
    shift += 4;
    if (cont.value() == 0) break;
    if (shift > 60) return Status::Corruption("varint too long");
  }
  return v;
}

Result<DocumentNavigator::Item> DocumentNavigator::Next() {
  if (variant_ == Variant::kTc) return NextTc();
  return NextPacked();
}

Result<DocumentNavigator::Item> DocumentNavigator::NextPacked() {
  Item item;
  if (done_) {
    item.kind = ItemKind::kEnd;
    return item;
  }
  const size_t nt = dict_.size();

  if (!started_) {
    started_ = true;
    auto kind = ReadBits(1);
    if (!kind.ok()) return kind.status();
    if (kind.value() != 1) {
      return Status::Corruption("root node must be an element");
    }
    auto internal = ReadBits(1);
    if (!internal.ok()) return internal.status();
    auto tag = ReadBits(BitsFor(nt));
    if (!tag.ok()) return tag.status();
    if (tag.value() >= nt) return Status::Corruption("root tag out of range");
    std::vector<xml::TagId> ctx = TakeSpareCtx();
    // Descendant-tag bitmap over the full dictionary.
    if (internal.value() != 0 &&
        (variant_ == Variant::kTcsb || variant_ == Variant::kTcsbr)) {
      CSXA_RETURN_NOT_OK(ReadDescTags(nt, nullptr, &ctx));
    }
    if (in_.position() + root_size_bits_ > in_.size_bits()) {
      return Status::Corruption("root size exceeds stream");
    }
    PushFrame(static_cast<xml::TagId>(tag.value()), root_size_bits_,
              std::move(ctx), &item);
    return item;
  }

  const Frame& top = frames_.back();
  if (in_.position() > top.end_bit) {
    return Status::Corruption("decoder overran subtree boundary");
  }
  if (in_.position() == top.end_bit) {
    item.kind = ItemKind::kClose;
    item.depth = depth_;
    item.tag_id = top.tag;
    PopFrame();
    return item;
  }

  auto kind = ReadBits(1);
  if (!kind.ok()) return kind.status();
  if (kind.value() == 0) {  // text node
    auto len = ReadBits(top.width);
    if (!len.ok()) return len.status();
    CSXA_ASSIGN_OR_RETURN(item.value, ReadText(len.value()));
    item.kind = ItemKind::kValue;
    item.depth = depth_ + 1;
    return item;
  }

  // Element node.
  auto internal = ReadBits(1);
  if (!internal.ok()) return internal.status();
  auto size = ReadBits(top.width);
  if (!size.ok()) return size.status();

  xml::TagId tag_id = 0;
  if (variant_ == Variant::kTcsbr) {
    auto idx = ReadBits(BitsFor(top.ctx.size()));
    if (!idx.ok()) return idx.status();
    if (idx.value() >= top.ctx.size()) {
      return Status::Corruption("tag index outside parent context");
    }
    tag_id = top.ctx[idx.value()];
  } else {
    auto tag = ReadBits(BitsFor(nt));
    if (!tag.ok()) return tag.status();
    if (tag.value() >= nt) return Status::Corruption("tag out of range");
    tag_id = static_cast<xml::TagId>(tag.value());
  }

  // A leaf element (internal bit clear) has an empty DescTag set.
  std::vector<xml::TagId> ctx = TakeSpareCtx();
  if (internal.value() != 0) {
    if (variant_ == Variant::kTcsb) {
      CSXA_RETURN_NOT_OK(ReadDescTags(nt, nullptr, &ctx));
    } else if (variant_ == Variant::kTcsbr) {
      CSXA_RETURN_NOT_OK(ReadDescTags(top.ctx.size(), &top.ctx, &ctx));
    }
  }
  if (in_.position() + size.value() > top.end_bit) {
    return Status::Corruption("child subtree exceeds parent extent");
  }
  PushFrame(tag_id, size.value(), std::move(ctx), &item);
  return item;
}

std::vector<xml::TagId> DocumentNavigator::TakeSpareCtx() {
  if (spare_ctx_.empty()) return {};
  std::vector<xml::TagId> ctx = std::move(spare_ctx_.back());
  spare_ctx_.pop_back();
  ctx.clear();
  return ctx;
}

void DocumentNavigator::PushFrame(xml::TagId tag, uint64_t size_bits,
                                  std::vector<xml::TagId> ctx, Item* item) {
  frames_.push_back(
      {tag, in_.position() + size_bits, BitWidth(size_bits), std::move(ctx)});
  ++depth_;
  if (variant_ == Variant::kTcsb || variant_ == Variant::kTcsbr) {
    item->desc = &frames_.back().ctx;
  }
  item->subtree_bits = size_bits;
  item->subtree_begin_bit = in_.position();
  item->kind = ItemKind::kOpen;
  item->depth = depth_;
  item->tag_id = tag;
}

Result<DocumentNavigator::Item> DocumentNavigator::NextTc() {
  Item item;
  if (done_) {
    item.kind = ItemKind::kEnd;
    return item;
  }
  auto marker = ReadBits(2);
  if (!marker.ok()) return marker.status();
  switch (marker.value()) {
    case 0b00: {  // end of children
      if (tc_stack_.empty()) {
        return Status::Corruption("unbalanced end-of-children marker");
      }
      item.kind = ItemKind::kClose;
      item.depth = depth_;
      item.tag_id = tc_stack_.back();
      tc_stack_.pop_back();
      --depth_;
      if (tc_stack_.empty()) done_ = true;
      return item;
    }
    case 0b01: {  // element
      if (!started_) started_ = true;
      auto tag = ReadBits(BitsFor(dict_.size()));
      if (!tag.ok()) return tag.status();
      if (tag.value() >= dict_.size()) {
        return Status::Corruption("tag out of range");
      }
      tc_stack_.push_back(static_cast<xml::TagId>(tag.value()));
      ++depth_;
      item.kind = ItemKind::kOpen;
      item.depth = depth_;
      item.tag_id = tc_stack_.back();
      return item;
    }
    case 0b10: {  // text
      auto len = ReadTcVarint();
      if (!len.ok()) return len.status();
      CSXA_ASSIGN_OR_RETURN(item.value, ReadText(len.value()));
      item.kind = ItemKind::kValue;
      item.depth = depth_ + 1;
      return item;
    }
    default:
      return Status::Corruption("invalid TC node marker");
  }
}

Status DocumentNavigator::SkipSubtree() {
  if (!CanSkip()) {
    return Status::NotSupported("TC streams cannot skip subtrees");
  }
  if (frames_.empty()) {
    return Status::InvalidArgument("no open element to skip");
  }
  return in_.SeekTo(frames_.back().end_bit);
}

Status DocumentNavigator::SkipElement() {
  CSXA_RETURN_NOT_OK(SkipSubtree());
  PopFrame();  // The close the next Next() would have reported.
  return Status::OK();
}

void DocumentNavigator::PopFrame() {
  spare_ctx_.push_back(std::move(frames_.back().ctx));
  frames_.pop_back();
  --depth_;
  if (frames_.empty()) done_ = true;
}

DocumentNavigator::Checkpoint DocumentNavigator::Save() const {
  Checkpoint cp;
  SaveTo(&cp);
  return cp;
}

void DocumentNavigator::SaveTo(Checkpoint* checkpoint) const {
  checkpoint->bit_pos = in_.position();
  checkpoint->depth = depth_;
  checkpoint->started = started_;
  checkpoint->frames.clear();
  checkpoint->ctx.clear();
  checkpoint->frames.reserve(frames_.size());
  size_t ctx_total = 0;
  for (const Frame& f : frames_) ctx_total += f.ctx.size();
  checkpoint->ctx.reserve(ctx_total);
  for (const Frame& f : frames_) {
    checkpoint->frames.push_back({f.tag, f.end_bit, f.width, f.ctx.size()});
    checkpoint->ctx.insert(checkpoint->ctx.end(), f.ctx.begin(), f.ctx.end());
  }
  checkpoint->tc_stack = tc_stack_;
}

Status DocumentNavigator::SeekTo(const Checkpoint& checkpoint) {
  if (checkpoint.bit_pos > in_.size_bits()) {
    return Status::OutOfRange("checkpoint past end of stream");
  }
  size_t ctx_total = 0;
  for (const Checkpoint::Frame& f : checkpoint.frames) {
    if (f.end_bit > in_.size_bits()) {
      return Status::OutOfRange("checkpoint frame past end of stream");
    }
    ctx_total += f.ctx_size;
  }
  if (ctx_total != checkpoint.ctx.size()) {
    return Status::InvalidArgument("checkpoint contexts do not match frames");
  }
  CSXA_RETURN_NOT_OK(in_.SeekTo(checkpoint.bit_pos));
  depth_ = checkpoint.depth;
  started_ = checkpoint.started;
  // Rebuild the frame stack in place: surplus frames park their context
  // vectors as spares, missing ones take spares, and every context is
  // refilled from its slice of the flat array.
  while (frames_.size() > checkpoint.frames.size()) {
    spare_ctx_.push_back(std::move(frames_.back().ctx));
    frames_.pop_back();
  }
  while (frames_.size() < checkpoint.frames.size()) {
    frames_.push_back({0, 0, 0, TakeSpareCtx()});
  }
  auto ctx = checkpoint.ctx.begin();
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Checkpoint::Frame& f = checkpoint.frames[i];
    const auto ctx_end = ctx + static_cast<ptrdiff_t>(f.ctx_size);
    frames_[i].tag = f.tag;
    frames_[i].end_bit = f.end_bit;
    frames_[i].width = f.width;
    frames_[i].ctx.assign(ctx, ctx_end);
    ctx = ctx_end;
  }
  tc_stack_ = checkpoint.tc_stack;
  done_ = started_ && frames_.empty() && tc_stack_.empty();
  return Status::OK();
}

}  // namespace csxa::index
