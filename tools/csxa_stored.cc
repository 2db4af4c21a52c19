// csxa_stored — the untrusted terminal as its own process.
//
// Generates one corpus per requested family (the seeded generator the
// benchmarks and tests use), publishes each into an in-process
// DocumentService, and exposes every document's live terminal link over
// TCP via net::TerminalServer speaking the record-framed batch protocol.
// The server holds document *ciphertext and digests only* — keys,
// geometry and versions travel out of band (here: printed so an SOE-side
// client can be configured; in the paper, delivered with the smartcard).
//
//   csxa_stored --port 7343                      # paper families, 1 MB each
//   csxa_stored --families hospital --bytes 4194304 --backend aes
//   csxa_stored --port 0 --duration 5            # ephemeral port, 5 s run
//
// Document ids are the family names ("hospital", "wsu", ...). The process
// serves until the duration elapses (0 = until killed).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/corpus.h"
#include "crypto/cipher_backend.h"
#include "net/terminal_server.h"
#include "server/document_service.h"

namespace {

using csxa::Result;
using csxa::Status;
using csxa::bench::CorpusFamily;

void Usage() {
  std::fprintf(stderr,
               "usage: csxa_stored [options]\n"
               "  --port N         TCP port (default 7343; 0 = ephemeral)\n"
               "  --families LIST  comma list, 'paper' (default) or 'all'\n"
               "  --bytes N        per-document corpus size (default 1048576)\n"
               "  --seed N         corpus content seed (default 1)\n"
               "  --chunk N        chunk size in bytes (default 1024)\n"
               "  --fragment N     fragment size in bytes (default 64)\n"
               "  --backend B      3des (default) or aes\n"
               "  --duration S     seconds to serve; 0 (default) = forever\n");
}

bool ParseFamilies(const std::string& arg, std::vector<CorpusFamily>* out) {
  if (arg == "paper") {
    *out = csxa::bench::PaperFamilies();
    return true;
  }
  if (arg == "all") {
    *out = csxa::bench::AllFamilies();
    return true;
  }
  out->clear();
  size_t pos = 0;
  while (pos <= arg.size()) {
    size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    Result<CorpusFamily> family =
        csxa::bench::ParseFamily(arg.substr(pos, comma - pos));
    if (!family.ok()) {
      std::fprintf(stderr, "csxa_stored: %s\n",
                   family.status().message().c_str());
      return false;
    }
    out->push_back(family.value());
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7343;
  std::vector<CorpusFamily> families = csxa::bench::PaperFamilies();
  uint64_t target_bytes = 1 << 20;
  uint64_t seed = 1;
  csxa::server::DocumentConfig doc_cfg;
  doc_cfg.layout.chunk_size = 1024;
  doc_cfg.layout.fragment_size = 64;
  int duration_s = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--port" && (v = next())) {
      port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--families" && (v = next())) {
      if (!ParseFamilies(v, &families)) return 2;
    } else if (arg == "--bytes" && (v = next())) {
      target_bytes = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed" && (v = next())) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--chunk" && (v = next())) {
      doc_cfg.layout.chunk_size = std::strtoul(v, nullptr, 10);
    } else if (arg == "--fragment" && (v = next())) {
      doc_cfg.layout.fragment_size = std::strtoul(v, nullptr, 10);
    } else if (arg == "--backend" && (v = next())) {
      Result<csxa::crypto::CipherBackendKind> kind =
          csxa::crypto::ParseCipherBackendName(v);
      if (!kind.ok()) {
        std::fprintf(stderr, "csxa_stored: %s\n",
                     kind.status().message().c_str());
        return 2;
      }
      doc_cfg.backend = kind.value();
    } else if (arg == "--duration" && (v = next())) {
      duration_s = std::atoi(v);
    } else {
      Usage();
      return 2;
    }
  }

  csxa::server::DocumentService service;
  csxa::net::TerminalServer server(csxa::net::TerminalServer::Options{port});

  for (CorpusFamily family : families) {
    csxa::bench::CorpusSpec spec;
    spec.family = family;
    spec.target_bytes = target_bytes;
    spec.seed = seed;
    csxa::bench::Corpus corpus = csxa::bench::GenerateCorpus(spec);
    const std::string doc_id = csxa::bench::FamilyName(family);
    for (size_t k = 0; k < doc_cfg.key.size(); ++k) {
      doc_cfg.key[k] = static_cast<uint8_t>(0xA5 ^ (seed >> (k % 8)) ^ k);
    }
    Status published = service.Publish(doc_id, corpus.xml, doc_cfg);
    if (!published.ok()) {
      std::fprintf(stderr, "csxa_stored: publish %s: %s\n", doc_id.c_str(),
                   published.ToString().c_str());
      return 1;
    }
    Result<std::shared_ptr<const csxa::crypto::BatchSource>> link =
        service.TerminalLink(doc_id);
    if (!link.ok()) {
      std::fprintf(stderr, "csxa_stored: link %s: %s\n", doc_id.c_str(),
                   link.status().ToString().c_str());
      return 1;
    }
    server.RegisterDocument(doc_id, link.take());
    std::fprintf(stderr, "csxa_stored: published %s (%llu bytes, seed %llu)\n",
                 doc_id.c_str(), static_cast<unsigned long long>(corpus.xml.size()),
                 static_cast<unsigned long long>(seed));
  }

  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "csxa_stored: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "csxa_stored: serving on 127.0.0.1:%u\n",
               server.port());
  if (duration_s > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(duration_s));
    server.Stop();
    std::fprintf(stderr,
                 "csxa_stored: done, %llu batch requests served\n",
                 static_cast<unsigned long long>(server.requests_served()));
    return 0;
  }
  // Serve until killed.
  while (true) std::this_thread::sleep_for(std::chrono::seconds(3600));
}
