#include "crypto/digest_cache.h"

#include <algorithm>

namespace csxa::crypto {

VerifiedDigestCache::VerifiedDigestCache(uint32_t fragments_per_chunk,
                                         size_t capacity, uint32_t version)
    : frags_(fragments_per_chunk),
      levels_(1),
      capacity_(capacity),
      version_(version) {
  for (uint32_t w = frags_; w > 1; w /= 2) ++levels_;
}

size_t VerifiedDigestCache::NodeIndex(int level, uint64_t index) const {
  // Level-major offset: level 0 starts at 0 with frags_ nodes, level l
  // starts after frags_ + frags_/2 + ... nodes.
  size_t off = 0;
  uint32_t width = frags_;
  for (int l = 0; l < level; ++l) {
    off += width;
    width /= 2;
  }
  return off + index;
}

const VerifiedDigestCache::Entry* VerifiedDigestCache::Find(
    uint64_t chunk) const {
  auto it = index_.find(chunk);
  if (it == index_.end() || it->second.entry == kNoEntry) return nullptr;
  const Entry& e = entries_[it->second.entry];
  e.last_use = ++clock_;
  return &e;
}

VerifiedDigestCache::Entry* VerifiedDigestCache::Obtain(uint64_t chunk) {
  if (const Entry* found = Find(chunk)) return const_cast<Entry*>(found);
  size_t slot;
  if (entries_.size() < capacity_) {
    slot = entries_.size();
    entries_.emplace_back();
  } else {
    // Displace the least recently used *unpinned* entry. Pinned chunks
    // are the ones in-flight batches' waivers and trimming hints depend
    // on — evicting one mid-batch would fail an honest response. Only a
    // full cache gets here, so lookups never pay for this scan. (Inline,
    // not a lambda: thread-safety analysis cannot carry REQUIRES(mu_) into
    // a lambda body, so a capture touching guarded state would be a false
    // alarm.)
    slot = entries_.size();
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].slot->pins != 0) continue;
      if (slot == entries_.size() ||
          entries_[i].last_use < entries_[slot].last_use) {
        slot = i;
      }
    }
    if (slot == entries_.size()) return nullptr;  // All slots pinned.
    ++stats_.evictions;
    index_.erase(entries_[slot].chunk);  // Unpinned: nothing else holds it.
  }
  Entry* e = &entries_[slot];
  Slot& record = index_[chunk];
  record.entry = static_cast<uint32_t>(slot);
  e->slot = &record;
  e->chunk = chunk;
  e->last_use = ++clock_;
  e->nodes.assign(2 * size_t{frags_} - 1, Sha1Digest{});
  e->known.assign(2 * size_t{frags_} - 1, 0);
  return e;
}

void VerifiedDigestCache::FillIn(Entry* e) {
  // Combine upward wherever both children are known: cached coverage
  // climbs as high as it can, so any later range whose flanking subtrees
  // fall under known nodes verifies bare.
  uint32_t width = frags_;
  for (int level = 0; level + 1 < levels_; ++level) {
    for (uint64_t i = 0; i + 1 < width; i += 2) {
      size_t left = NodeIndex(level, i);
      size_t right = NodeIndex(level, i + 1);
      size_t up = NodeIndex(level + 1, i / 2);
      if (!e->known[up] && e->known[left] && e->known[right]) {
        e->nodes[up] = Sha1::HashPair(e->nodes[left], e->nodes[right]);
        e->known[up] = 1;
      }
    }
    width /= 2;
  }
}

void VerifiedDigestCache::PinLocked(const std::vector<uint64_t>& chunks) {
  for (uint64_t chunk : chunks) ++index_[chunk].pins;
}

void VerifiedDigestCache::Pin(const std::vector<uint64_t>& chunks) {
  MutexLock lock(&mu_);
  PinLocked(chunks);
}

void VerifiedDigestCache::Unpin(const std::vector<uint64_t>& chunks) {
  MutexLock lock(&mu_);
  for (uint64_t chunk : chunks) {
    auto it = index_.find(chunk);
    if (it == index_.end() || it->second.pins == 0) continue;
    if (--it->second.pins == 0 && it->second.entry == kNoEntry) {
      index_.erase(it);
    }
  }
}

VerifiedDigestCache::PinScope VerifiedDigestCache::PinAndClaim(
    std::vector<uint64_t> chunks, const std::vector<Cover>& covers,
    std::vector<Claim>* claims) {
  claims->clear();
  MutexLock lock(&mu_);
  PinLocked(chunks);
  // A chunk split across two runs (an already-valid fragment between
  // them) is waived only when *every* covered range verifies bare.
  for (const Cover& cover : covers) {
    const bool bare = CanVerifyBareLocked(cover.chunk, cover.first, cover.last);
    if (!claims->empty() && claims->back().chunk == cover.chunk) {
      claims->back().bare &= bare;
    } else {
      claims->push_back({cover.chunk, bare, 0, false});
    }
  }
  for (Claim& claim : *claims) {
    if (claim.bare) continue;
    claim.known_nodes = KnownMaskLocked(claim.chunk);
    claim.root_known = Find(claim.chunk) != nullptr;
  }
  return PinScope(this, std::move(chunks), PinScope::Adopt{});
}

bool VerifiedDigestCache::CanVerifyBare(uint64_t chunk, uint32_t first,
                                        uint32_t last) const {
  // Pure probe: planner and fetcher may ask repeatedly while shaping one
  // batch, so hit/miss accounting happens at verification time
  // (RecordBareHit / the decryptor's material path), not here.
  MutexLock lock(&mu_);
  return CanVerifyBareLocked(chunk, first, last);
}

bool VerifiedDigestCache::CanVerifyBareLocked(uint64_t chunk, uint32_t first,
                                              uint32_t last) const {
  const Entry* e = Find(chunk);
  if (e == nullptr || first > last || last >= frags_) return false;
  uint64_t lo = first, hi = last, width = frags_;
  for (int level = 0; width > 1; ++level, lo /= 2, hi /= 2, width /= 2) {
    if (lo % 2 == 1 && !e->known[NodeIndex(level, lo - 1)]) return false;
    if (hi % 2 == 0 && hi + 1 < width &&
        !e->known[NodeIndex(level, hi + 1)]) {
      return false;
    }
  }
  return true;
}

bool VerifiedDigestCache::MatchLeaves(
    uint64_t chunk, uint32_t first,
    const std::vector<Sha1Digest>& leaves) const {
  if (leaves.empty() || first + leaves.size() > frags_) return false;
  MutexLock lock(&mu_);
  const Entry* e = Find(chunk);
  if (e == nullptr) return false;
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (!e->known[first + i] || e->nodes[first + i] != leaves[i]) {
      return false;
    }
  }
  ++stats_.bare_hits;
  return true;
}

void VerifiedDigestCache::RecordBareHit() const {
  MutexLock lock(&mu_);
  ++stats_.bare_hits;
}

void VerifiedDigestCache::RecordMiss() const {
  MutexLock lock(&mu_);
  ++stats_.misses;
}

std::vector<ProofNode> VerifiedDigestCache::ProofFor(uint64_t chunk,
                                                     uint32_t first,
                                                     uint32_t last) const {
  MutexLock lock(&mu_);
  std::vector<ProofNode> proof;
  const Entry* e = Find(chunk);
  if (e == nullptr) return proof;
  uint64_t lo = first, hi = last, width = frags_;
  for (int level = 0; width > 1; ++level, lo /= 2, hi /= 2, width /= 2) {
    if (lo % 2 == 1) {
      proof.push_back({level, lo - 1, e->nodes[NodeIndex(level, lo - 1)]});
    }
    if (hi % 2 == 0 && hi + 1 < width) {
      proof.push_back({level, hi + 1, e->nodes[NodeIndex(level, hi + 1)]});
    }
  }
  return proof;
}

bool VerifiedDigestCache::Root(uint64_t chunk, Sha1Digest* out) const {
  MutexLock lock(&mu_);
  const Entry* e = Find(chunk);
  if (e == nullptr) return false;
  if (out != nullptr) *out = e->root;
  return true;
}

bool VerifiedDigestCache::RootKnown(uint64_t chunk) const {
  return Root(chunk, nullptr);
}

bool VerifiedDigestCache::Node(uint64_t chunk, int level, uint64_t index,
                               Sha1Digest* out) const {
  MutexLock lock(&mu_);
  const Entry* e = Find(chunk);
  if (e == nullptr || level < 0 || level >= levels_ ||
      index >= (uint64_t{frags_} >> level)) {
    return false;
  }
  size_t idx = NodeIndex(level, index);
  if (!e->known[idx]) return false;
  if (out != nullptr) *out = e->nodes[idx];
  return true;
}

uint64_t VerifiedDigestCache::KnownMask(uint64_t chunk) const {
  MutexLock lock(&mu_);
  return KnownMaskLocked(chunk);
}

uint64_t VerifiedDigestCache::KnownMaskLocked(uint64_t chunk) const {
  const Entry* e = Find(chunk);
  if (e == nullptr || e->known.size() > 64) return 0;
  uint64_t mask = 0;
  for (size_t i = 0; i < e->known.size(); ++i) {
    if (e->known[i]) mask |= uint64_t{1} << i;
  }
  return mask;
}

uint64_t VerifiedDigestCache::MissingProofNodes(uint64_t chunk, uint32_t first,
                                                uint32_t last) const {
  // Same range guard as CanVerifyBare: a malformed range has no proof to
  // price (and must not index past the entry's node table).
  if (first > last || last >= frags_) return 0;
  MutexLock lock(&mu_);
  const Entry* e = Find(chunk);
  uint64_t missing = 0;
  uint64_t lo = first, hi = last, width = frags_;
  for (int level = 0; width > 1; ++level, lo /= 2, hi /= 2, width /= 2) {
    if (lo % 2 == 1 &&
        (e == nullptr || !e->known[NodeIndex(level, lo - 1)])) {
      ++missing;
    }
    if (hi % 2 == 0 && hi + 1 < width &&
        (e == nullptr || !e->known[NodeIndex(level, hi + 1)])) {
      ++missing;
    }
  }
  return missing;
}

uint64_t VerifiedDigestCache::FlatIndex(uint32_t fragments_per_chunk,
                                        int level, uint64_t index) {
  uint64_t off = 0;
  uint32_t width = fragments_per_chunk;
  for (int l = 0; l < level; ++l) {
    off += width;
    width /= 2;
  }
  return off + index;
}

VerifiedDigestCache::Stats VerifiedDigestCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void VerifiedDigestCache::Record(common::VerifyPass, uint64_t chunk,
                                 const Sha1Digest& root, uint32_t first,
                                 const std::vector<Sha1Digest>& leaves,
                                 const std::vector<ProofNode>& proof) {
  if (capacity_ == 0) return;
  MutexLock lock(&mu_);
  Entry* e = Obtain(chunk);
  if (e == nullptr) return;  // Every slot pinned by in-flight batches.
  e->root = root;
  e->nodes[NodeIndex(levels_ - 1, 0)] = root;
  e->known[NodeIndex(levels_ - 1, 0)] = 1;
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (first + i >= frags_) break;
    e->nodes[NodeIndex(0, first + i)] = leaves[i];
    e->known[NodeIndex(0, first + i)] = 1;
  }
  for (const ProofNode& node : proof) {
    // Sanitize coordinates: only well-formed (level, index) pairs land in
    // the tree (a junk extra node could otherwise overwrite a slot a later
    // bare read consults — still caught by the root comparison, but a
    // needless failure).
    if (node.level < 0 || node.level >= levels_) continue;
    if (node.index >= (uint64_t{frags_} >> node.level)) continue;
    size_t idx = NodeIndex(node.level, node.index);
    e->nodes[idx] = node.hash;
    e->known[idx] = 1;
  }
  FillIn(e);
  ++stats_.records;
}

}  // namespace csxa::crypto
