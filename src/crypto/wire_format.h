#ifndef CSXA_CRYPTO_WIRE_FORMAT_H_
#define CSXA_CRYPTO_WIRE_FORMAT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crypto/secure_store.h"

namespace csxa::crypto {

/// Byte-level framing of the batched verified-fetch protocol — the wire
/// format a real terminal transport (ROADMAP: out-of-process store) puts on
/// the socket. Both frames are length-explicit, little-endian, and carry a
/// magic so a desynchronized stream is caught at the first field.
///
/// The decoder is written for attacker-controlled input: the terminal is
/// untrusted, so every count and length field is validated against the
/// bytes actually present *before* any allocation is sized from it (a
/// length-field lie can never cause an over-allocation or an out-of-bounds
/// read), and a frame must consume its buffer exactly (trailing garbage is
/// rejected). Every malformed frame yields IntegrityError — wire corruption
/// and wire tampering are indistinguishable to the SOE, and both must fail
/// closed the same way the Merkle chain does. Nothing decoded here is
/// *trusted*: a frame that parses is still subject to the full digest-chain
/// verification in SoeDecryptor::DecryptVerifiedBatch.
///
/// Layout (all integers little-endian):
///   request  := 'Q''X''S''C' u32=count{runs} (u64 begin, u64 end)*
///               u32=count{bare} (u64 chunk)*
///               u32=count{hints} (u64 chunk, u64 known_nodes, u8 root_known)*
///   response := 'R''X''S''C' u32=count{segments} (u64 begin, u64 len, bytes)*
///               u32=count{chunks} (u64 chunk_index, u32 first_fragment,
///                 u32 last_fragment, u8 has_prefix_state(=0),
///                 u32 count{proof} (u32 level, u64 index, 20B hash)*,
///                 u32 digest_len, bytes)*
/// has_prefix_state is the flag of Figure F1's mid-fragment read, which
/// ships the terminal's intermediate SHA-1 state. Every batch run is
/// fragment-aligned, so no state is ever shipped: the byte is written as 0
/// and a nonzero byte is rejected ("prefix state on batched wire").

/// Serializes `request` into `out` (appended).
void EncodeBatchRequest(const BatchRequest& request, std::vector<uint8_t>* out);

/// Parses a request frame; the frame must span exactly [data, data+size).
Result<BatchRequest> DecodeBatchRequest(const uint8_t* data, size_t size);

/// Parses a request frame into `out`, reusing its storage: on success
/// `out` equals a fresh decode; on failure it is left empty.
Status DecodeBatchRequest(const uint8_t* data, size_t size, BatchRequest* out);

/// Serializes `response` into `out` (appended).
void EncodeBatchResponse(const BatchResponse& response,
                         std::vector<uint8_t>* out);

/// Parses a response frame; the frame must span exactly [data, data+size).
Result<BatchResponse> DecodeBatchResponse(const uint8_t* data, size_t size);

/// Parses a response frame into `out`, reusing its segment, proof and
/// digest storage: on success `out` equals a fresh decode; on failure it
/// is left empty.
Status DecodeBatchResponse(const uint8_t* data, size_t size,
                           BatchResponse* out);

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_WIRE_FORMAT_H_
