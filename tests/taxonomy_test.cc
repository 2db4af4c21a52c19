// Error-taxonomy contract: every attacker-facing rejection in the
// store/SOE chain reports StatusCode::kIntegrityError *specifically* —
// not InvalidArgument, not Corruption, not a generic failure. This is the
// PR 7 bug class pinned as a tier-1 test: a stale-session race was once
// misclassified as InvalidArgument and slipped through every attack test
// that only checked "some error happened". The attack matrix here mirrors
// the benchmark's cross-backend section (tools/csxa_bench.cc) so the
// taxonomy holds even when the bench is not run; the wire half pins the
// decoder contract the fuzz corpus relies on (tools/csxa_lint.py enforces
// the same contract statically on src/crypto/wire_format.cc).

#include <cstdint>
#include <string>
#include <vector>

#include "batch_read.h"
#include "crypto/cipher_backend.h"
#include "crypto/secure_store.h"
#include "crypto/wire_format.h"
#include "testing.h"

namespace csxa {
namespace {

crypto::TripleDes::Key TestKey() {
  crypto::TripleDes::Key key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xA5 ^ (i * 29));
  }
  return key;
}

std::vector<uint8_t> TestDocumentBytes(char salt) {
  std::vector<uint8_t> doc(4096);
  for (size_t i = 0; i < doc.size(); ++i) {
    doc[i] = static_cast<uint8_t>(salt + i % 26);
  }
  return doc;
}

crypto::ChunkLayout TestLayout() {
  crypto::ChunkLayout lay;
  lay.chunk_size = 512;
  lay.fragment_size = 32;
  return lay;
}

constexpr crypto::CipherBackendKind kBackends[] = {
    crypto::CipherBackendKind::k3Des,
    crypto::CipherBackendKind::kAes,
};

// Runs one store-level attack under one backend and checks the rejection
// class. `attack` mirrors the benchmark's BackendAttackRejected matrix,
// plus the chunk-replay attack (an internally consistent stale chunk).
void CheckAttackClass(crypto::CipherBackendKind backend, int attack,
                      const char* name) {
  const std::vector<uint8_t> doc = TestDocumentBytes('a');
  const crypto::ChunkLayout lay = TestLayout();
  uint32_t expected_version = 1;
  auto store = crypto::SecureDocumentStore::Build(doc, TestKey(), lay,
                                                  /*version=*/1, backend);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  switch (attack) {
    case 0:
      store.value().TamperByte(2048, 0x40);
      break;
    case 1:
      store.value().SwapBlocks(2, 3);
      break;
    case 2:
      store.value().SwapChunkDigests(0, 1);
      break;
    case 3:
      expected_version = 2;  // Replayed stale document state.
      break;
    case 4: {
      // Replay of one chunk from an older store state: ciphertext and
      // digest are internally consistent, but the digest is sealed for
      // version 0 while the SOE expects version 1.
      auto old = crypto::SecureDocumentStore::Build(
          TestDocumentBytes('b'), TestKey(), lay, /*version=*/0, backend);
      CHECK_OK(old.status());
      if (!old.ok()) return;
      store.value().ReplayChunkFrom(old.value(), 2);
      break;
    }
  }
  crypto::SoeDecryptor soe(TestKey(), lay, store.value().plaintext_size(),
                           store.value().chunk_count(), expected_version,
                           crypto::SoeDecryptor::kDefaultDigestCacheCapacity,
                           /*shared_cache=*/nullptr, backend);
  auto plain = testing::FetchVerified(store.value(), &soe, 0, doc.size());
  CHECK(!plain.ok());
  if (plain.ok()) {
    testing::Fail(__FILE__, __LINE__,
                  std::string("attack not rejected: ") + name);
    return;
  }
  if (plain.status().code() != StatusCode::kIntegrityError) {
    testing::Fail(__FILE__, __LINE__,
                  std::string(name) + " rejected with the wrong class: " +
                      plain.status().ToString());
  }
  CHECK(!plain.status().message().empty());
}

TEST(AttackMatrixRejectsAsIntegrityError) {
  const char* names[] = {"tampered byte", "swapped cipher blocks",
                         "transposed chunk digests", "replayed stale version",
                         "replayed stale chunk"};
  for (crypto::CipherBackendKind backend : kBackends) {
    for (int attack = 0; attack < 5; ++attack) {
      CheckAttackClass(backend, attack, names[attack]);
    }
  }
}

// Every wire-decode failure is an integrity failure: the decoder faces raw
// terminal bytes, so a frame it cannot parse *is* the attack surface. Any
// other class here would let a taxonomy-driven retry loop treat attacker
// bytes as a caller bug.
TEST(WireDecodeFailuresAreIntegrityErrors) {
  // A valid response frame to truncate: serve a batch and encode it.
  const std::vector<uint8_t> doc = TestDocumentBytes('a');
  auto store = crypto::SecureDocumentStore::Build(doc, TestKey(), TestLayout(),
                                                  /*version=*/1);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  crypto::BatchRequest request;
  request.runs.push_back({0, 1024});
  request.runs.push_back({2048, 2560});
  auto resp = store.value().ReadBatch(request);
  CHECK_OK(resp.status());
  if (!resp.ok()) return;
  std::vector<uint8_t> frame;
  crypto::EncodeBatchResponse(resp.value(), &frame);

  int rejected = 0;
  for (size_t len = 0; len < frame.size(); len += 7) {
    auto decoded = crypto::DecodeBatchResponse(frame.data(), len);
    if (decoded.ok()) continue;  // A prefix that happens to parse is fine.
    ++rejected;
    if (decoded.status().code() != StatusCode::kIntegrityError) {
      testing::Fail(__FILE__, __LINE__,
                    "truncated response rejected with the wrong class: " +
                        decoded.status().ToString());
      return;
    }
  }
  CHECK(rejected > 0);

  std::vector<uint8_t> req_frame;
  crypto::EncodeBatchRequest(request, &req_frame);
  rejected = 0;
  for (size_t len = 0; len < req_frame.size(); ++len) {
    auto decoded = crypto::DecodeBatchRequest(req_frame.data(), len);
    if (decoded.ok()) continue;
    ++rejected;
    if (decoded.status().code() != StatusCode::kIntegrityError) {
      testing::Fail(__FILE__, __LINE__,
                    "truncated request rejected with the wrong class: " +
                        decoded.status().ToString());
      return;
    }
  }
  CHECK(rejected > 0);

  // Garbage that is not a frame at all.
  std::vector<uint8_t> garbage(64, 0xEE);
  auto decoded = crypto::DecodeBatchResponse(garbage.data(), garbage.size());
  CHECK(!decoded.ok());
  if (!decoded.ok()) {
    CHECK(decoded.status().code() == StatusCode::kIntegrityError);
  }
}

// The store's run check splits two classes. A run ending past the store,
// or at an unaligned end short of it, is what a session built for another
// version sends after a bump (a shrink, or a growth that moved the old
// tail mid-document): IntegrityError, the stale-session class. A run no
// session of any version builds is caller misuse: InvalidArgument.
TEST(FillBatchSplitsStaleRangesFromMalformedRuns) {
  using Runs = std::vector<crypto::BatchRequest::Run>;
  struct Case {
    const char* name;
    Runs runs;
    StatusCode code;
  };
  // 4016 bytes: a multiple of both cipher blocks whose last fragment is
  // 16 bytes short, so the store's end is an unaligned tail.
  const std::vector<uint8_t> doc(4016, 'x');
  const Case cases[] = {
      {"whole document", {{0, 4016}}, StatusCode::kOk},
      {"unaligned tail at the store's end", {{3968, 4016}}, StatusCode::kOk},
      {"end past the store", {{3968, 4032}}, StatusCode::kIntegrityError},
      {"second run past the store",
       {{0, 64}, {3968, 4032}},
       StatusCode::kIntegrityError},
      {"unaligned end short of the store's end",
       {{0, 100}},
       StatusCode::kIntegrityError},
      {"empty run", {{64, 64}}, StatusCode::kInvalidArgument},
      {"begin after end", {{96, 64}}, StatusCode::kInvalidArgument},
      {"unaligned begin", {{16, 64}}, StatusCode::kInvalidArgument},
      {"overlapping runs",
       {{0, 128}, {64, 192}},
       StatusCode::kInvalidArgument},
  };
  for (crypto::CipherBackendKind backend : kBackends) {
    auto store = crypto::SecureDocumentStore::Build(doc, TestKey(),
                                                    TestLayout(),
                                                    /*version=*/1, backend);
    CHECK_OK(store.status());
    if (!store.ok()) return;
    CHECK_EQ(store.value().ciphertext().size(), doc.size());
    crypto::BatchResponse response;
    for (const Case& c : cases) {
      crypto::BatchRequest request;
      request.runs = c.runs;
      Status filled = store.value().FillBatch(request, &response);
      if (filled.code() != c.code) {
        testing::Fail(__FILE__, __LINE__,
                      std::string(c.name) + " (" +
                          crypto::CipherBackendKindName(backend) +
                          ") answered " + filled.ToString());
      }
      if (c.code == StatusCode::kIntegrityError) {
        CHECK_EQ(filled.message(),
                 std::string("stale session: batch range beyond the current "
                             "document version"));
      }
    }
  }
}

}  // namespace
}  // namespace csxa
