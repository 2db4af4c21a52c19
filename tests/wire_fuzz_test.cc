// Wire-level fuzzing of the batched verified-fetch protocol: a
// deterministic mutation corpus (bit flips, truncations, length-field
// lies, segment/material inconsistencies, tampered proofs and digests,
// stale versions) is thrown at BatchResponse/BatchRequest decoding and at
// the chunk-digest verification behind it. The contract under attack
// input is absolute: every mutation must yield a clean IntegrityError —
// never a crash, never a hang, never silent acceptance of tampered bytes.
// The whole corpus runs under the ASan/UBSan ctest jobs, so an
// out-of-bounds read on a lying length field fails loudly there.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/secure_store.h"
#include "crypto/wire_format.h"
#include "testing.h"

namespace {

using namespace csxa;  // NOLINT

int mutations_rejected = 0;  ///< Corpus size witness (gate: >= 50).

crypto::TripleDes::Key FuzzKey() {
  crypto::TripleDes::Key key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xa5 ^ (i * 37));
  }
  return key;
}

crypto::ChunkLayout FuzzLayout() {
  crypto::ChunkLayout layout;
  layout.chunk_size = 512;
  layout.fragment_size = 64;
  return layout;
}

std::vector<uint8_t> FuzzPlaintext() {
  std::vector<uint8_t> bytes(2000);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < bytes.size(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    bytes[i] = static_cast<uint8_t>(state >> 33);
  }
  return bytes;
}

const crypto::SecureDocumentStore& FuzzStore() {
  static crypto::SecureDocumentStore store = [] {
    auto built = crypto::SecureDocumentStore::Build(
        FuzzPlaintext(), FuzzKey(), FuzzLayout(), /*version=*/0);
    CHECK(built.ok());
    return built.take();
  }();
  return store;
}

/// Three fragment-aligned runs: a partial chunk (proof non-trivial), a
/// whole chunk, and a tail run ending at the document end.
crypto::BatchRequest FuzzRequest() {
  crypto::BatchRequest request;
  request.runs.push_back({64, 320});
  request.runs.push_back({512, 1024});
  request.runs.push_back({1536, 2000});
  return request;
}

std::vector<uint8_t> FuzzResponseFrame() {
  auto response = FuzzStore().ReadBatch(FuzzRequest());
  CHECK(response.ok());
  std::vector<uint8_t> frame;
  crypto::EncodeBatchResponse(response.value(), &frame);
  return frame;
}

enum class Outcome {
  kDecodeRejected,  ///< Decoder refused the frame with IntegrityError.
  kVerifyRejected,  ///< Frame parsed; digest chain refused it.
  kAccepted,        ///< Plaintext released (only the unmutated control may).
  kWrongError,      ///< Any non-IntegrityError failure: always a bug.
};

/// Decode + full digest-chain verification with a FRESH decryptor (no
/// verified material leaks between mutations through a shared cache).
Outcome RunFrame(const std::vector<uint8_t>& frame,
                 uint32_t expected_version = 0) {
  const crypto::SecureDocumentStore& store = FuzzStore();
  auto decoded = crypto::DecodeBatchResponse(
      frame.empty() ? nullptr : frame.data(), frame.size());
  if (!decoded.ok()) {
    return decoded.status().code() == StatusCode::kIntegrityError
               ? Outcome::kDecodeRejected
               : Outcome::kWrongError;
  }
  crypto::SoeDecryptor soe(FuzzKey(), FuzzLayout(), store.plaintext_size(),
                           store.chunk_count(), expected_version);
  std::vector<uint8_t> out(store.plaintext_size());
  Status status = soe.DecryptVerifiedBatch(FuzzRequest(), decoded.value(),
                                           out.data(), out.size());
  if (status.ok()) return Outcome::kAccepted;
  return status.code() == StatusCode::kIntegrityError
             ? Outcome::kVerifyRejected
             : Outcome::kWrongError;
}

void ExpectRejected(const std::vector<uint8_t>& frame, const char* what) {
  const Outcome outcome = RunFrame(frame);
  if (outcome == Outcome::kAccepted) {
    testing::Fail(__FILE__, __LINE__,
                  std::string(what) + ": tampered frame was ACCEPTED");
    return;
  }
  if (outcome == Outcome::kWrongError) {
    testing::Fail(__FILE__, __LINE__,
                  std::string(what) + ": failure was not IntegrityError");
    return;
  }
  ++mutations_rejected;
}

void PatchU32(std::vector<uint8_t>* frame, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*frame)[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void PatchU64(std::vector<uint8_t>* frame, size_t offset, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*frame)[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

}  // namespace

// The unmutated control: the honest frame round-trips, verifies, and
// releases exactly the requested plaintext — without this the corpus
// could pass vacuously against a decoder that rejects everything.
TEST(HonestFrameAccepted) {
  const std::vector<uint8_t> frame = FuzzResponseFrame();
  CHECK(RunFrame(frame) == Outcome::kAccepted);

  auto decoded = crypto::DecodeBatchResponse(frame.data(), frame.size());
  CHECK_OK(decoded.status());
  crypto::SoeDecryptor soe(FuzzKey(), FuzzLayout(),
                           FuzzStore().plaintext_size(),
                           FuzzStore().chunk_count(), 0);
  std::vector<uint8_t> out(FuzzStore().plaintext_size());
  CHECK_OK(soe.DecryptVerifiedBatch(FuzzRequest(), decoded.value(),
                                    out.data(), out.size()));
  const std::vector<uint8_t> plain = FuzzPlaintext();
  for (const crypto::BatchRequest::Run& run : FuzzRequest().runs) {
    CHECK(std::memcmp(out.data() + run.begin, plain.data() + run.begin,
                      run.end - run.begin) == 0);
  }
}

// The request side round-trips losslessly (hints included) — the codec
// the service routes every in-process batch through.
TEST(RequestRoundTrip) {
  crypto::BatchRequest request = FuzzRequest();
  request.bare_chunks = {1, 3};
  request.hints.push_back({2, 0x5aULL, true});
  std::vector<uint8_t> frame;
  crypto::EncodeBatchRequest(request, &frame);
  auto decoded = crypto::DecodeBatchRequest(frame.data(), frame.size());
  CHECK_OK(decoded.status());
  CHECK_EQ(decoded.value().runs.size(), request.runs.size());
  for (size_t i = 0; i < request.runs.size(); ++i) {
    CHECK_EQ(decoded.value().runs[i].begin, request.runs[i].begin);
    CHECK_EQ(decoded.value().runs[i].end, request.runs[i].end);
  }
  CHECK(decoded.value().bare_chunks == request.bare_chunks);
  CHECK_EQ(decoded.value().hints.size(), request.hints.size());
  CHECK_EQ(decoded.value().hints[0].chunk, request.hints[0].chunk);
  CHECK_EQ(decoded.value().hints[0].known_nodes,
           request.hints[0].known_nodes);
  CHECK(decoded.value().hints[0].root_known);
}

// Single-bit flips at 40 positions spread across the whole response frame:
// every byte of the frame is load-bearing (magic, counts, offsets,
// ciphertext, proof hashes, encrypted digests), so every flip must be
// rejected by the decoder or by the digest chain.
TEST(ResponseBitFlips) {
  const std::vector<uint8_t> frame = FuzzResponseFrame();
  for (int i = 0; i < 40; ++i) {
    std::vector<uint8_t> mutated = frame;
    const size_t pos = static_cast<size_t>(i) * (frame.size() - 1) / 39;
    mutated[pos] ^= static_cast<uint8_t>(1u << (i % 8));
    ExpectRejected(mutated, "bit flip");
  }
}

// Truncations: every proper prefix is an incomplete frame; the decoder
// must detect the missing bytes before reading them (ASan watches), and
// appended trailing bytes violate exact consumption.
TEST(ResponseTruncations) {
  const std::vector<uint8_t> frame = FuzzResponseFrame();
  const size_t cuts[] = {0,
                         1,
                         2,
                         3,
                         4,
                         5,
                         8,
                         16,
                         frame.size() / 4,
                         frame.size() / 2,
                         frame.size() - 9,
                         frame.size() - 1};
  for (size_t cut : cuts) {
    std::vector<uint8_t> mutated(frame.begin(),
                                 frame.begin() + static_cast<long>(cut));
    ExpectRejected(mutated, "truncation");
  }
  std::vector<uint8_t> extended = frame;
  extended.push_back(0);
  ExpectRejected(extended, "trailing byte");
}

// Length-field lies: counts and lengths claiming more (or fewer) bytes
// than the frame holds. The decoder validates every count against the
// bytes present before sizing any allocation from it — a 0xFFFFFFFF
// segment count must die at the bounds check, not in operator new.
TEST(ResponseLengthLies) {
  const std::vector<uint8_t> frame = FuzzResponseFrame();
  // Offsets fixed by the format: magic(4) seg_count(4) then the first
  // segment's (u64 begin)(u64 len).
  const size_t kSegCountOff = 4, kFirstBeginOff = 8, kFirstLenOff = 16;

  std::vector<uint8_t> m = frame;
  PatchU32(&m, 0, 0xdeadbeef);  // wrong magic
  ExpectRejected(m, "bad magic");

  m = frame;
  PatchU32(&m, kSegCountOff, 0xffffffffu);  // count lie: over-allocation bait
  ExpectRejected(m, "segment count lie");

  m = frame;
  PatchU32(&m, kSegCountOff, 4);  // one more segment than encoded
  ExpectRejected(m, "segment count +1");

  m = frame;
  PatchU32(&m, kSegCountOff, 2);  // one fewer: shifts all later parsing
  ExpectRejected(m, "segment count -1");

  m = frame;
  PatchU64(&m, kFirstLenOff, ~0ULL);  // segment length beyond the frame
  ExpectRejected(m, "segment length lie");

  m = frame;
  PatchU64(&m, kFirstLenOff, 256 + 8);  // steal bytes from the next field
  ExpectRejected(m, "segment length +8");

  m = frame;
  PatchU64(&m, kFirstBeginOff, 1ULL << 62);  // parses; offset is absurd
  ExpectRejected(m, "segment begin lie");
}

// The u8 after last_fragment is the prefix-state flag of Figure F1's
// mid-fragment read. Batch runs are fragment-aligned, so an honest frame
// writes 0; a frame that sets it must die in the decoder, by name.
TEST(PrefixStateByteRejected) {
  auto response = FuzzStore().ReadBatch(FuzzRequest());
  CHECK_OK(response.status());
  if (!response.ok()) return;
  // magic(4) seg_count(4), per segment (u64 begin)(u64 len)(bytes),
  // chunk_count(4), then the first chunk's (u64 index)(u32 first)(u32 last).
  size_t offset = 8;
  for (const crypto::BatchResponse::Segment& seg : response.value().segments) {
    offset += 16 + seg.ciphertext.size();
  }
  offset += 4 + 8 + 4 + 4;
  std::vector<uint8_t> frame = FuzzResponseFrame();
  CHECK_EQ(frame[offset], uint8_t{0});
  frame[offset] = 1;
  auto decoded = crypto::DecodeBatchResponse(frame.data(), frame.size());
  CHECK(decoded.status().code() == StatusCode::kIntegrityError);
  CHECK(decoded.status().message().find("prefix state on batched wire") !=
        std::string::npos);
  ExpectRejected(frame, "prefix state set");
}

// Structurally valid frames carrying semantically tampered content: each
// mutation re-encodes cleanly, so the decoder passes it and the digest
// chain must be what refuses. This is the layer a wire attacker who knows
// the format perfectly would aim at.
TEST(ResponseSemanticTampering) {
  auto baseline = FuzzStore().ReadBatch(FuzzRequest());
  CHECK(baseline.ok());

  struct Mutation {
    const char* name;
    void (*apply)(crypto::BatchResponse*);
  };
  const Mutation mutations[] = {
      {"segments swapped",
       [](crypto::BatchResponse* r) {
         std::swap(r->segments[0], r->segments[1]);
       }},
      {"segment begin shifted",
       [](crypto::BatchResponse* r) { r->segments[0].begin += 64; }},
      {"segment truncated",
       [](crypto::BatchResponse* r) {
         // csxa-lint: allow(taint-release) fuzz tampers pre-verification bytes
         auto& ct = r->segments[0].ciphertext.ReleaseUnverified();
         ct.resize(ct.size() - 8);
       }},
      {"segment padded",
       [](crypto::BatchResponse* r) {
         // csxa-lint: allow(taint-release) fuzz tampers pre-verification bytes
         auto& ct = r->segments[0].ciphertext.ReleaseUnverified();
         ct.resize(ct.size() + 8);
       }},
      {"segment ciphertext block swapped",
       [](crypto::BatchResponse* r) {
         // csxa-lint: allow(taint-release) fuzz tampers pre-verification bytes
         auto& ct = r->segments[0].ciphertext.ReleaseUnverified();
         for (int i = 0; i < 8; ++i) std::swap(ct[i], ct[8 + i]);
       }},
      {"material dropped",
       [](crypto::BatchResponse* r) { r->chunks.erase(r->chunks.begin()); }},
      {"material duplicated",
       [](crypto::BatchResponse* r) { r->chunks.push_back(r->chunks[0]); }},
      {"material for wrong chunk",
       [](crypto::BatchResponse* r) { r->chunks[0].chunk_index = 2; }},
      {"fragment range narrowed",
       [](crypto::BatchResponse* r) { r->chunks[0].last_fragment -= 1; }},
      {"fragment range shifted",
       [](crypto::BatchResponse* r) { r->chunks[0].first_fragment += 1; }},
      {"fragment range inverted",
       [](crypto::BatchResponse* r) {
         r->chunks[0].last_fragment = r->chunks[0].first_fragment - 1;
       }},
      {"proof hash flipped",
       [](crypto::BatchResponse* r) { r->chunks[0].proof[0].hash[0] ^= 1; }},
      {"proof level bumped",
       [](crypto::BatchResponse* r) { r->chunks[0].proof[0].level += 1; }},
      {"proof index bumped",
       [](crypto::BatchResponse* r) { r->chunks[0].proof[0].index += 1; }},
      {"proof node dropped",
       [](crypto::BatchResponse* r) {
         r->chunks[0].proof.erase(r->chunks[0].proof.begin());
       }},
      {"proof node forged",
       [](crypto::BatchResponse* r) {
         r->chunks[0].proof.push_back({0, 7, crypto::Sha1Digest{}});
       }},
      {"proof position duplicated with forged hash",
       [](crypto::BatchResponse* r) {
         // Rides a second hash for a legitimate sibling position alongside
         // the honest one — the cache-poisoning shape: the first copy
         // satisfies the root, the second would be recorded unverified.
         crypto::ProofNode forged = r->chunks[0].proof[0];
         forged.hash[0] ^= 0xff;
         r->chunks[0].proof.push_back(forged);
       }},
      {"digest flipped",
       [](crypto::BatchResponse* r) {
         r->chunks[0].encrypted_digest[0] ^= 0x80;
       }},
      {"digest truncated",
       [](crypto::BatchResponse* r) {
         r->chunks[0].encrypted_digest.resize(23);
       }},
      {"digest padded",
       [](crypto::BatchResponse* r) {
         r->chunks[0].encrypted_digest.resize(25, 0);
       }},
      {"digests transposed",
       [](crypto::BatchResponse* r) {
         std::swap(r->chunks[0].encrypted_digest,
                   r->chunks[1].encrypted_digest);
       }},
      // Zero-length spans: every variable-length field emptied outright.
      // Beyond the rejection these pin the UBSan contract — an empty
      // vector's .data() is null, and a re-encode/decode/verify cycle over
      // it must never hand that null to memcpy (the PR 7 UBSan class; the
      // sanitizer CI job runs this file).
      {"segment ciphertext emptied",
       [](crypto::BatchResponse* r) {
         // csxa-lint: allow(taint-release) fuzz tampers pre-verification bytes
         r->segments[0].ciphertext.ReleaseUnverified().clear();
       }},
      {"segment list emptied",
       [](crypto::BatchResponse* r) { r->segments.clear(); }},
      {"digest emptied",
       [](crypto::BatchResponse* r) {
         r->chunks[0].encrypted_digest.clear();
       }},
      {"proof list emptied",
       [](crypto::BatchResponse* r) { r->chunks[0].proof.clear(); }},
      {"material list emptied",
       [](crypto::BatchResponse* r) { r->chunks.clear(); }},
  };
  CHECK(baseline.value().chunks.size() >= 2);
  CHECK(!baseline.value().chunks[0].proof.empty());
  for (const Mutation& mutation : mutations) {
    crypto::BatchResponse tampered = baseline.value();
    mutation.apply(&tampered);
    std::vector<uint8_t> frame;
    crypto::EncodeBatchResponse(tampered, &frame);
    ExpectRejected(frame, mutation.name);
  }
}

// Replay of a stale document state: an honest frame for version 0 must be
// refused by an SOE expecting version 1 — the digest seals the version.
TEST(StaleVersionRejected) {
  const std::vector<uint8_t> frame = FuzzResponseFrame();
  const Outcome outcome = RunFrame(frame, /*expected_version=*/1);
  CHECK(outcome == Outcome::kVerifyRejected);
  if (outcome == Outcome::kVerifyRejected) ++mutations_rejected;
}

// The request decoder faces the same attacker (a compromised SOE-side
// frame, or a desynchronized stream): mutations must never crash, and
// every rejection must be IntegrityError. A flipped bit that still parses
// is acceptable — it encodes a *different valid request* — so acceptance
// is not asserted against here, only failure hygiene.
TEST(RequestFrameFuzz) {
  crypto::BatchRequest request = FuzzRequest();
  request.bare_chunks = {1};
  request.hints.push_back({0, 0x3, false});
  std::vector<uint8_t> frame;
  crypto::EncodeBatchRequest(request, &frame);

  auto decode_is_clean = [](const std::vector<uint8_t>& f) {
    auto decoded =
        crypto::DecodeBatchRequest(f.empty() ? nullptr : f.data(), f.size());
    return decoded.ok() ||
           decoded.status().code() == StatusCode::kIntegrityError;
  };

  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> mutated = frame;
    const size_t pos = static_cast<size_t>(i) * (frame.size() - 1) / 15;
    mutated[pos] ^= static_cast<uint8_t>(1u << (i % 8));
    CHECK(decode_is_clean(mutated));
  }
  for (size_t cut : {size_t{0}, size_t{3}, size_t{4}, size_t{11},
                     frame.size() / 2, frame.size() - 1}) {
    std::vector<uint8_t> mutated(frame.begin(),
                                 frame.begin() + static_cast<long>(cut));
    CHECK(!crypto::DecodeBatchRequest(mutated.empty() ? nullptr
                                                      : mutated.data(),
                                      mutated.size())
               .ok());
    CHECK(decode_is_clean(mutated));
  }
  // Count lie on the run table.
  std::vector<uint8_t> lie = frame;
  PatchU32(&lie, 4, 0xffffffffu);
  CHECK(!crypto::DecodeBatchRequest(lie.data(), lie.size()).ok());
  CHECK(decode_is_clean(lie));
  // The root_known flag is the frame's last byte; anything but 0/1 is a
  // malformed frame, not a bool to be reinterpreted.
  std::vector<uint8_t> flag = frame;
  flag.back() = 2;
  CHECK(!crypto::DecodeBatchRequest(flag.data(), flag.size()).ok());
  CHECK(decode_is_clean(flag));
}

// Decoding into a reused request or response (the terminal link's pooled
// scratch) must be indistinguishable from a fresh decode: a short frame
// after a long one leaves no extra run, hint, segment or proof behind, and
// a malformed frame after a valid one fails and leaves nothing visible.
TEST(DecodeIntoReusedStorageEqualsFreshDecode) {
  auto reencode_response = [](const crypto::BatchResponse& r) {
    std::vector<uint8_t> f;
    crypto::EncodeBatchResponse(r, &f);
    return f;
  };
  auto reencode_request = [](const crypto::BatchRequest& r) {
    std::vector<uint8_t> f;
    crypto::EncodeBatchRequest(r, &f);
    return f;
  };

  // Responses: three segments with proofs and digests, then one segment
  // of one fragment with a short proof, then a bare read (no material).
  const std::vector<uint8_t> long_frame = FuzzResponseFrame();
  std::vector<std::vector<uint8_t>> short_frames;
  for (bool bare : {false, true}) {
    crypto::BatchRequest request;
    request.runs.push_back({64, 128});
    if (bare) request.bare_chunks.push_back(0);
    auto response = FuzzStore().ReadBatch(request);
    CHECK_OK(response.status());
    if (!response.ok()) return;
    short_frames.push_back(reencode_response(response.value()));
  }
  for (const std::vector<uint8_t>& short_frame : short_frames) {
    crypto::BatchResponse reused;
    CHECK_OK(crypto::DecodeBatchResponse(long_frame.data(), long_frame.size(),
                                         &reused));
    CHECK_EQ(reused.segments.size(), size_t{3});
    CHECK_OK(crypto::DecodeBatchResponse(short_frame.data(),
                                         short_frame.size(), &reused));
    auto fresh =
        crypto::DecodeBatchResponse(short_frame.data(), short_frame.size());
    CHECK_OK(fresh.status());
    if (!fresh.ok()) return;
    CHECK_EQ(reused.segments.size(), fresh.value().segments.size());
    CHECK_EQ(reused.chunks.size(), fresh.value().chunks.size());
    for (size_t i = 0; i < reused.chunks.size(); ++i) {
      CHECK_EQ(reused.chunks[i].proof.size(),
               fresh.value().chunks[i].proof.size());
    }
    CHECK_EQ(reused.WireBytes(), fresh.value().WireBytes());
    CHECK(reencode_response(reused) == short_frame);
  }

  // Malformed after valid: a truncated digest, trailing garbage, a count
  // lie and a bad magic each fail as IntegrityError and leave the
  // response empty — including the failures found only after every
  // segment already parsed.
  std::vector<std::vector<uint8_t>> malformed;
  malformed.emplace_back(long_frame.begin(), long_frame.end() - 5);
  malformed.push_back(long_frame);
  malformed.back().push_back(0);
  malformed.push_back(long_frame);
  PatchU32(&malformed.back(), 4, 0xffffffffu);
  malformed.push_back(long_frame);
  malformed.back()[0] ^= 0xff;
  for (const std::vector<uint8_t>& bad : malformed) {
    crypto::BatchResponse reused;
    CHECK_OK(crypto::DecodeBatchResponse(long_frame.data(), long_frame.size(),
                                         &reused));
    Status st = crypto::DecodeBatchResponse(bad.data(), bad.size(), &reused);
    CHECK(st.code() == StatusCode::kIntegrityError);
    CHECK(reused.segments.empty());
    CHECK(reused.chunks.empty());
    CHECK_EQ(reused.WireBytes(), uint64_t{0});
  }

  // Requests: runs, waivers and hints, then a single bare run.
  crypto::BatchRequest long_request = FuzzRequest();
  long_request.bare_chunks = {1, 3};
  long_request.hints.push_back({2, 0x5aULL, true});
  long_request.hints.push_back({0, 0x3ULL, false});
  crypto::BatchRequest short_request;
  short_request.runs.push_back({0, 64});
  const std::vector<uint8_t> long_req_frame = reencode_request(long_request);
  const std::vector<uint8_t> short_req_frame = reencode_request(short_request);
  crypto::BatchRequest reused;
  CHECK_OK(crypto::DecodeBatchRequest(long_req_frame.data(),
                                      long_req_frame.size(), &reused));
  CHECK(reencode_request(reused) == long_req_frame);
  CHECK_OK(crypto::DecodeBatchRequest(short_req_frame.data(),
                                      short_req_frame.size(), &reused));
  CHECK_EQ(reused.runs.size(), size_t{1});
  CHECK(reused.bare_chunks.empty());
  CHECK(reused.hints.empty());
  CHECK(reencode_request(reused) == short_req_frame);

  std::vector<uint8_t> bad_flag = long_req_frame;
  bad_flag.back() = 2;  // The last hint's root_known flag.
  std::vector<uint8_t> cut(long_req_frame.begin(), long_req_frame.end() - 3);
  for (const std::vector<uint8_t>& bad : {bad_flag, cut}) {
    CHECK_OK(crypto::DecodeBatchRequest(long_req_frame.data(),
                                        long_req_frame.size(), &reused));
    Status st = crypto::DecodeBatchRequest(bad.data(), bad.size(), &reused);
    CHECK(st.code() == StatusCode::kIntegrityError);
    CHECK(reused.runs.empty());
    CHECK(reused.bare_chunks.empty());
    CHECK(reused.hints.empty());
  }
}

// The corpus-size witness the issue gates on: at least 50 distinct
// response-frame mutations ran and were cleanly rejected above.
TEST(FuzzCorpusSize) {
  CHECK(mutations_rejected >= 50);
}
