// Transport robustness matrix: every injectable fault, against both
// cipher backends, against cold and warm shared-digest caches, must end
// in exactly one of two contracted outcomes — a byte-identical authorized
// view after typed retries, or a clean error of a contracted class
// (kUnavailable / kDeadlineExceeded / kIntegrityError). Never a mismatched
// view, never a partial view, never a raw errno class. The fault proxy is
// seeded/programmed, so any failure here replays deterministically — except
// in the concurrent case, where the fault program is fixed but which
// serve each fault lands in follows the thread schedule.
//
// The listener under both servers is checked on its own: Stop() returns
// while clients sit idle, a second Stop() does nothing, a proxy whose
// upstream refuses closes its client, and finished connections release
// their threads.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "access/access_rule.h"
#include "common/bytes.h"
#include "crypto/wire_format.h"
#include "index/encoder.h"
#include "index/fetch_planner.h"
#include "net/fault_proxy.h"
#include "net/remote_source.h"
#include "net/terminal_server.h"
#include "server/document_service.h"
#include "testing.h"

namespace {

using namespace csxa;  // NOLINT

crypto::TripleDes::Key TestKey() {
  crypto::TripleDes::Key key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0x51 ^ (i * 29));
  }
  return key;
}

std::string Payload(const char* stem, int i, size_t n) {
  std::string s = std::string(stem) + "-" + std::to_string(i) + "-";
  while (s.size() < n) s += "transportum";
  s.resize(n);
  return s;
}

std::string TestDocument(int folders) {
  std::string xml = "<Hospital>";
  for (int f = 0; f < folders; ++f) {
    xml += "<Folder><Admin><Insurance>" + Payload("adm", f, 160) +
           "</Insurance></Admin><MedActs>";
    for (int c = 0; c < 3; ++c) {
      xml += "<Consult><Diagnostic>" + Payload("dx", f * 10 + c, 56) +
             "</Diagnostic><Prescription>rx-" + std::to_string(f * 10 + c) +
             "</Prescription></Consult>";
    }
    xml += "</MedActs><Clearance>" + std::string(f % 2 ? "closed" : "open") +
           "</Clearance></Folder>";
  }
  xml += "</Hospital>";
  return xml;
}

using csxa::testing::DirectView;

server::DocumentConfig TestConfig(crypto::CipherBackendKind backend) {
  server::DocumentConfig cfg;
  cfg.layout.chunk_size = 256;
  cfg.layout.fragment_size = 32;
  cfg.key = TestKey();
  cfg.backend = backend;
  return cfg;
}

#ifndef CSXA_SANITIZED
/// One malloc arena for the whole binary. glibc keeps an arena per thread
/// that ever allocated, up to a limit it reads once, when the first
/// thread allocates; so it is set here, before main(). Otherwise those
/// arenas, never unmapped, would hide the stacks that
/// FinishedConnectionsReleaseTheirThreads measures.
const int kOneArena = mallopt(M_ARENA_MAX, 1);
#endif

/// Runs `stop` and fails unless it returns within 10 s. A Stop() that
/// hangs cannot be abandoned, so that failure ends the process.
void ExpectPromptStop(const char* what, const std::function<void()>& stop) {
  std::promise<void> done;
  std::future<void> returned = done.get_future();
  std::thread stopper([&] {
    stop();
    done.set_value();
  });
  if (returned.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "  FAIL [%s] %s did not return\n",
                 csxa::testing::current_test, what);
    std::_Exit(1);
  }
  stopper.join();
}

Status SendBind(int fd, std::string_view doc_id) {
  return net::WriteRecord(fd, net::RecordKind::kBind, /*id=*/1,
                          common::AsBytes(doc_id), doc_id.size());
}

/// Reads one byte from a peer the far side has closed: 0 (EOF) is the
/// expected answer, -1 means the read timed out or failed.
ssize_t ReadOneByte(int fd) {
  net::SetRecvTimeoutNs(fd, 5'000'000'000ULL);
  char byte;
  return ::read(fd, &byte, 1);
}

/// The process's virtual size in bytes, from /proc/self/status.
uint64_t VmSizeBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtoull(line.c_str() + 7, nullptr, 10) * 1024;
    }
  }
  return 0;
}

net::RemoteBatchSource::Options RemoteOptions(uint16_t port) {
  net::RemoteBatchSource::Options opts;
  opts.port = port;
  opts.doc_id = "doc";
  opts.deadline_ns = 250'000'000;  // Trips well inside one test run.
  opts.max_attempts = 4;
  opts.backoff_initial_ns = 1'000'000;
  opts.backoff_max_ns = 8'000'000;
  return opts;
}

struct FaultCase {
  net::FaultProxy::Fault fault;
  const char* name;
  uint64_t arg;
  /// true: the serve must succeed byte-identically after typed retries;
  /// false: the serve must fail with a terminal IntegrityError.
  bool survivable;
};

const FaultCase kFaultCases[] = {
    // Survivable weather: the client's deadline or reconnect machinery
    // turns each into retries ending in a byte-identical view.
    {net::FaultProxy::Fault::kDropAfterBytes, "drop_after_bytes", 13, true},
    {net::FaultProxy::Fault::kStall, "stall", 700'000'000, true},
    {net::FaultProxy::Fault::kCloseMidResponse, "close_mid_response", 0, true},
    {net::FaultProxy::Fault::kDuplicateResponse, "duplicate_response", 0,
     true},
    // Tampering: a response that arrives but no longer decodes is
    // indistinguishable from an attack — terminal, never retried.
    {net::FaultProxy::Fault::kTruncateFrame, "truncate_frame", 0, false},
    {net::FaultProxy::Fault::kCorruptByte, "corrupt_byte", 9, false},
};

/// Runs one (fault, backend, temperature) cell. `warm` first drains a
/// clean remote serve through a fault-free path so the shared digest
/// cache holds every chunk before the faulted serve runs.
void RunFaultCell(const FaultCase& fc, crypto::CipherBackendKind backend,
                  bool warm) {
  const std::string xml = TestDocument(/*folders=*/4);
  auto rules = access::ParseRuleList("+ //Prescription\n").take();
  const std::string expected = DirectView(xml, rules);

  server::DocumentService service;
  CHECK_OK(service.Publish("doc", xml, TestConfig(backend)));
  net::TerminalServer server;
  auto link = service.TerminalLink("doc");
  CHECK_OK(link.status());
  if (!link.ok()) return;
  server.RegisterDocument("doc", link.take());
  CHECK_OK(server.Start());

  if (warm) {
    // Warm the shared cache over a clean remote path first.
    auto direct = std::make_shared<net::RemoteBatchSource>(
        RemoteOptions(server.port()));
    CHECK_OK(service.AttachTransport("doc", direct));
    auto primed = service.Serve("doc", rules, pipeline::ServeOptions{});
    CHECK_OK(primed.status());
    if (primed.ok()) CHECK_EQ(primed.value().view, expected);
    CHECK_OK(service.AttachTransport("doc", nullptr));
  }

  net::FaultProxy::Options proxy_opts;
  proxy_opts.upstream_port = server.port();
  // Response 0 is the bind ack; 1 is the first real batch response.
  proxy_opts.program = {{fc.fault, /*response_index=*/1, fc.arg}};
  net::FaultProxy proxy(proxy_opts);
  CHECK_OK(proxy.Start());
  auto remote =
      std::make_shared<net::RemoteBatchSource>(RemoteOptions(proxy.port()));
  CHECK_OK(service.AttachTransport("doc", remote));

  auto report = service.Serve("doc", rules, pipeline::ServeOptions{});
  const std::string cell = std::string(fc.name) + "/" +
                           crypto::CipherBackendKindName(backend) +
                           (warm ? "/warm" : "/cold");
  if (fc.survivable) {
    if (!report.ok()) {
      csxa::testing::Fail(__FILE__, __LINE__,
                          cell + " should survive, got " +
                              report.status().ToString());
    } else {
      CHECK_EQ(report.value().view, expected);
      if (fc.fault != net::FaultProxy::Fault::kDuplicateResponse) {
        // The fault really fired and really cost a typed retry or a
        // reconnect — it did not pass unnoticed.
        CHECK(report.value().retries > 0 || report.value().reconnects > 0);
      }
    }
  } else {
    if (report.ok()) {
      // Tampering must not produce a view — but if it does, it must at
      // the very least be the correct one (a retry that re-verified).
      csxa::testing::Fail(__FILE__, __LINE__,
                          cell + " should fail terminally, got a view");
    } else {
      CHECK_EQ(static_cast<int>(report.status().code()),
               static_cast<int>(StatusCode::kIntegrityError));
    }
  }
  CHECK_EQ(proxy.faults_fired(), uint64_t{1});

  // The faulted serve — success or terminal failure — must leave no
  // poisoned shared state behind: a clean follow-up serve over a fresh
  // fault-free link still produces the exact view.
  CHECK_OK(service.AttachTransport(
      "doc",
      std::make_shared<net::RemoteBatchSource>(RemoteOptions(server.port()))));
  auto after = service.Serve("doc", rules, pipeline::ServeOptions{});
  CHECK_OK(after.status());
  if (after.ok()) CHECK_EQ(after.value().view, expected);

  proxy.Stop();
  server.Stop();
}

TEST(FaultMatrixEveryFaultBackendTemperature) {
  for (const FaultCase& fc : kFaultCases) {
    for (crypto::CipherBackendKind backend :
         {crypto::CipherBackendKind::k3Des, crypto::CipherBackendKind::kAes}) {
      for (bool warm : {false, true}) {
        RunFaultCell(fc, backend, warm);
      }
    }
  }
}

TEST(ConcurrentServesRaceUpdateThroughSeededFaults) {
  // Four threads share one RemoteBatchSource behind a paced proxy (1 ms
  // RTT) that fires a seeded mixed-fault program into live responses,
  // while one Update races the serves. Every outcome must be a view equal
  // to some version's direct view, a clean IntegrityError (a stale session
  // or tampered frame failing closed), or a typed transport failure once
  // the retry ladder runs dry.
  const std::vector<std::string> versions = {TestDocument(/*folders=*/4),
                                             TestDocument(/*folders=*/5)};
  // A skipping role (many small batches) and a streaming one (few large
  // ones); views[r][v] is role r's direct view of version v.
  std::vector<std::vector<access::AccessRule>> roles;
  std::vector<std::vector<std::string>> views;
  for (const char* text : {"+ //Prescription\n", "+ /Hospital\n"}) {
    roles.push_back(access::ParseRuleList(text).take());
    auto& per_version = views.emplace_back();
    for (const std::string& xml : versions) {
      per_version.push_back(DirectView(xml, roles.back()));
    }
  }

  server::DocumentService service;
  CHECK_OK(service.Publish("doc", versions[0],
                           TestConfig(crypto::CipherBackendKind::k3Des)));
  net::TerminalServer server;
  server.RegisterDocument("doc", service.TerminalLink("doc").take());
  CHECK_OK(server.Start());
  constexpr uint64_t kHorizon = 96;
  net::FaultProxy::Options proxy_opts;
  proxy_opts.upstream_port = server.port();
  proxy_opts.rtt_ns = 1'000'000;
  proxy_opts.program = net::FaultProxy::SeededProgram(/*seed=*/42,
                                                      /*count=*/12, kHorizon);
  net::FaultProxy proxy(proxy_opts);
  CHECK_OK(proxy.Start());
  CHECK_OK(service.AttachTransport(
      "doc",
      std::make_shared<net::RemoteBatchSource>(RemoteOptions(proxy.port()))));

  std::atomic<bool> stop{false};
  std::atomic<int> completed{0}, bad_views{0}, wrong_errors{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t]() {
      const size_t r = t % roles.size();
      while (!stop.load(std::memory_order_relaxed)) {
        auto report =
            service.Serve("doc", roles[r], pipeline::ServeOptions{});
        if (report.ok()) {
          completed.fetch_add(1);
          if (report.value().view != views[r][0] &&
              report.value().view != views[r][1]) {
            bad_views.fetch_add(1);
          }
          continue;
        }
        const StatusCode code = report.status().code();
        if (code != StatusCode::kIntegrityError &&
            code != StatusCode::kUnavailable &&
            code != StatusCode::kDeadlineExceeded) {
          wrong_errors.fetch_add(1);
        }
      }
    });
  }
  // Bump halfway through the fault horizon, stop once it is spent.
  auto wait_for_responses = [&proxy](uint64_t n) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (proxy.responses_seen() < n &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  wait_for_responses(kHorizon / 2);
  CHECK_OK(service.Update("doc", versions[1]));
  wait_for_responses(kHorizon);
  stop.store(true);
  for (auto& th : clients) th.join();
  CHECK_EQ(bad_views.load(), 0);
  CHECK_EQ(wrong_errors.load(), 0);
  CHECK(completed.load() > 0);
  CHECK(proxy.faults_fired() > 0);

  // A clean serve over a fresh link returns the final version's view.
  CHECK_OK(service.AttachTransport(
      "doc",
      std::make_shared<net::RemoteBatchSource>(RemoteOptions(server.port()))));
  for (size_t r = 0; r < roles.size(); ++r) {
    auto after = service.Serve("doc", roles[r], pipeline::ServeOptions{});
    CHECK_OK(after.status());
    if (after.ok()) CHECK_EQ(after.value().view, views[r][1]);
  }
  CHECK_OK(service.AttachTransport("doc", nullptr));
  proxy.Stop();
  server.Stop();
}

TEST(LinkPriceIsTheBandwidthDelayProduct) {
  // Synthetic round trips on a 10 ms, 8192 B/s link: a round trip of b
  // bytes takes 10 ms + b / 8192 s. One round trip is worth 81.92 bytes.
  auto ns = [](uint64_t bytes) {
    return 10'000'000 + bytes * 1'000'000'000 / 8192;
  };
  const std::vector<std::pair<uint64_t, uint64_t>> samples = {
      {ns(128), 128}, {ns(512), 512}, {ns(2048), 2048},
      // Queued behind other requests: slower, so never the class's best.
      {ns(512) + 40'000'000, 520}, {ns(128) + 5'000'000, 130}};
  std::vector<size_t> order = {0, 1, 2, 3, 4};
  do {
    net::LinkPriceEstimate estimate;
    for (size_t i : order) estimate.Add(samples[i].first, samples[i].second);
    CHECK_EQ(estimate.price_bytes(), uint64_t{81});
  } while (std::next_permutation(order.begin(), order.end()));

  // A fastest round trip delayed by 3 ms: the delay shortens the 270 B
  // class's extra time by a fifth and inflates the rate it reads, which
  // a best-rate rule took (155 B). The widest class moves the price less.
  net::LinkPriceEstimate delayed;
  delayed.Add(ns(128) + 3'000'000, 128);
  delayed.Add(ns(270), 270);
  delayed.Add(ns(2048), 2048);
  const uint64_t delayed_price = delayed.price_bytes();
  CHECK(delayed_price >= 41 && delayed_price <= 127);

  // Not measured yet, or every round trip within a factor of two in size:
  // latency and transfer cannot be told apart.
  net::LinkPriceEstimate early;
  CHECK_EQ(early.price_bytes(), uint64_t{0});
  early.Add(ns(300), 300);
  CHECK_EQ(early.price_bytes(), uint64_t{0});
  early.Add(ns(500), 500);
  CHECK_EQ(early.price_bytes(), uint64_t{0});
  early.Add(ns(1000), 1000);
  CHECK_EQ(early.price_bytes(), uint64_t{81});

  // Loopback behind a 1 ms delay: 1 ns a byte is lost in the latency
  // noise, so bytes are free next to a round trip.
  net::LinkPriceEstimate loopback;
  for (uint64_t bytes : {364, 620, 2164, 8332}) {
    loopback.Add(1'000'000 + bytes, bytes);
  }
  CHECK_EQ(loopback.price_bytes(), UINT64_MAX);
  // The fastest round trip being the largest says the same.
  net::LinkPriceEstimate inverted;
  inverted.Add(1'100'000, 300);
  inverted.Add(1'000'000, 8000);
  CHECK_EQ(inverted.price_bytes(), UINT64_MAX);
}

TEST(InProcessAndFreshSourcesPriceNothing) {
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", TestDocument(/*folders=*/2),
                           TestConfig(crypto::CipherBackendKind::kAes)));
  auto link = service.TerminalLink("doc");
  CHECK_OK(link.status());
  if (link.ok()) {
    CHECK_EQ(link.value()->transport_stats().round_trip_price_bytes,
             uint64_t{0});
  }
  std::vector<uint8_t> plaintext(512, 7);
  auto store = crypto::SecureDocumentStore::Build(
      plaintext, TestKey(), TestConfig(crypto::CipherBackendKind::kAes).layout);
  CHECK_OK(store.status());
  if (store.ok()) {
    CHECK_EQ(store.value().transport_stats().round_trip_price_bytes,
             uint64_t{0});
  }
  net::RemoteBatchSource fresh(RemoteOptions(/*port=*/1));
  CHECK_EQ(fresh.transport_stats().round_trip_price_bytes, uint64_t{0});
}

TEST(PacedLinkPricesItsBandwidthDelayProduct) {
  // 10 ms and 8192 B/s: one round trip is worth 82 bytes. Requests of
  // growing size through the proxy measure it. Each size goes four times,
  // so a round trip a loaded host delays is not its class's fastest.
  std::vector<uint8_t> plaintext(4096);
  for (size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = static_cast<uint8_t>(i * 13);
  }
  auto store = crypto::SecureDocumentStore::Build(
      plaintext, TestKey(), TestConfig(crypto::CipherBackendKind::kAes).layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  net::TerminalServer server;
  server.RegisterDocument(
      "doc", std::make_shared<crypto::SecureDocumentStore>(store.take()));
  CHECK_OK(server.Start());
  net::FaultProxy::Options proxy_opts;
  proxy_opts.upstream_port = server.port();
  proxy_opts.rtt_ns = 10'000'000;
  proxy_opts.bandwidth_bytes_per_s = 8192;
  net::FaultProxy proxy(proxy_opts);
  CHECK_OK(proxy.Start());
  net::RemoteBatchSource::Options opts = RemoteOptions(proxy.port());
  opts.deadline_ns = 5'000'000'000ULL;
  net::RemoteBatchSource remote(opts);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t bytes : {32, 256, 1024}) {
      crypto::BatchRequest request;
      request.runs.push_back({0, bytes});
      CHECK_OK(remote.ReadBatch(request).status());
    }
  }
  const uint64_t price = remote.transport_stats().round_trip_price_bytes;
  if (price < 41 || price > 127) {
    csxa::testing::Fail(__FILE__, __LINE__,
                        "price " + std::to_string(price) +
                            " B outside [41, 127] on a 10 ms, 8192 B/s link");
  }
  proxy.Stop();
  server.Stop();
}

/// Folders whose denied Admin records span whole 256-byte fragments, so
/// skipping them saves transfers.
std::string SkipHeavyDocument(int folders) {
  std::string xml = "<Hospital>";
  for (int f = 0; f < folders; ++f) {
    xml += "<Folder><Admin><Insurance>" + Payload("adm", f, 700) +
           "</Insurance></Admin><MedActs><Consult><Diagnostic>" +
           Payload("dx", f, 300) + "</Diagnostic></Consult></MedActs>" +
           "</Folder>";
  }
  xml += "</Hospital>";
  return xml;
}

TEST(UnpacedLinkKeepsReadaheadAcrossSkips) {
  // A 1 ms link with no byte cost: a round trip is worth more than the
  // batch horizon, so skips stop collapsing the window. The view is the
  // in-process one, in fewer round trips than in process (price 0).
  const std::string xml = SkipHeavyDocument(/*folders=*/48);
  auto rules = access::ParseRuleList("+ //MedActs\n").take();
  server::DocumentConfig cfg;
  cfg.key = TestKey();
  cfg.shared_cache_capacity = 0;  // Every serve cold: equal proofs.
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", xml, cfg));
  const pipeline::ServeOptions opts(/*skip=*/true, UINT64_MAX);
  auto local = service.Serve("doc", rules, opts);
  CHECK_OK(local.status());
  if (!local.ok()) return;
  CHECK_EQ(local.value().view, DirectView(xml, rules));

  net::TerminalServer server;
  server.RegisterDocument("doc", service.TerminalLink("doc").take());
  CHECK_OK(server.Start());
  net::FaultProxy::Options proxy_opts;
  proxy_opts.upstream_port = server.port();
  proxy_opts.rtt_ns = 1'000'000;
  net::FaultProxy proxy(proxy_opts);
  CHECK_OK(proxy.Start());
  net::RemoteBatchSource::Options ropts = RemoteOptions(proxy.port());
  ropts.deadline_ns = 5'000'000'000ULL;
  auto remote = std::make_shared<net::RemoteBatchSource>(ropts);
  CHECK_OK(service.AttachTransport("doc", remote));
  // Stream-all serves first: round trips of every size up to the horizon
  // measure the link.
  for (int i = 0; i < 3; ++i) {
    CHECK_OK(service.Serve("doc", rules,
                           pipeline::ServeOptions(/*skip=*/false, UINT64_MAX))
                 .status());
  }
  const uint64_t horizon =
      index::FetchPlanner(0, cfg.layout.fragment_size, cfg.layout.chunk_size,
                          index::PlannerOptions{})
          .max_batch_bytes();
  CHECK(remote->transport_stats().round_trip_price_bytes >= horizon);
  auto priced = service.Serve("doc", rules, opts);
  CHECK_OK(priced.status());
  if (priced.ok()) {
    CHECK_EQ(priced.value().view, local.value().view);
    if (priced.value().requests >= local.value().requests) {
      csxa::testing::Fail(__FILE__, __LINE__,
                          std::to_string(priced.value().requests) +
                              " requests over the link, " +
                              std::to_string(local.value().requests) +
                              " in process");
    }
  }
  CHECK_OK(service.AttachTransport("doc", nullptr));
  proxy.Stop();
  server.Stop();
}

TEST(ConnectRefusedIsTypedAndBounded) {
  // Nothing listens on the port the (stopped) server vacated: every
  // attempt is refused, the ladder runs out, and the serve fails closed
  // with the retryable class — not a crash, not a raw errno surface.
  net::TerminalServer server;
  CHECK_OK(server.Start());
  const uint16_t vacated = server.port();
  server.Stop();

  net::RemoteBatchSource::Options opts = RemoteOptions(vacated);
  opts.max_attempts = 3;
  net::RemoteBatchSource source(opts);
  crypto::BatchRequest request;
  request.runs.push_back({0, 32});
  auto response = source.ReadBatch(request);
  CHECK(!response.ok());
  if (!response.ok()) {
    CHECK_EQ(static_cast<int>(response.status().code()),
             static_cast<int>(StatusCode::kUnavailable));
    // The message is ours, not strerror()'s.
    CHECK(response.status().message().find("errno") == std::string::npos);
  }
  CHECK_EQ(source.transport_stats().retries, uint64_t{2});
}

TEST(UnknownDocumentFailsWithoutRetry) {
  net::TerminalServer server;
  CHECK_OK(server.Start());
  net::RemoteBatchSource::Options opts = RemoteOptions(server.port());
  opts.doc_id = "nonexistent";
  net::RemoteBatchSource source(opts);
  crypto::BatchRequest request;
  request.runs.push_back({0, 32});
  auto response = source.ReadBatch(request);
  CHECK(!response.ok());
  if (!response.ok()) {
    // The server's InvalidArgument relays as itself and is not retried.
    CHECK_EQ(static_cast<int>(response.status().code()),
             static_cast<int>(StatusCode::kInvalidArgument));
  }
  CHECK_EQ(source.transport_stats().retries, uint64_t{0});
  server.Stop();
}

/// Writes one record on a raw connection and reads the server's reply,
/// which must echo the record's id.
Result<net::Record> Exchange(int fd, net::RecordKind kind, uint64_t id,
                             const std::vector<uint8_t>& payload) {
  CSXA_RETURN_NOT_OK(
      net::WriteRecord(fd, kind, id, payload.data(), payload.size()));
  CSXA_ASSIGN_OR_RETURN(net::Record reply, net::ReadRecord(fd));
  CHECK_EQ(reply.id, id);
  return reply;
}

TEST(TerminalAnswersRawFramesAsFilledInProcess) {
  // Record by record over a raw socket, against a service's live link
  // and a bare store: each answer is the in-process fill of the same
  // request, encoded once, and the connection's reused request and
  // response carry nothing from one record into the next.
  server::DocumentService service;
  const server::DocumentConfig cfg =
      TestConfig(crypto::CipherBackendKind::kAes);
  CHECK_OK(service.Publish("doc", TestDocument(/*folders=*/4), cfg));
  auto link = service.TerminalLink("doc");
  CHECK_OK(link.status());
  if (!link.ok()) return;
  std::vector<uint8_t> plaintext(4096);
  for (size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = static_cast<uint8_t>(i * 7);
  }
  auto built =
      crypto::SecureDocumentStore::Build(plaintext, TestKey(), cfg.layout);
  CHECK_OK(built.status());
  if (!built.ok()) return;
  auto bare = std::make_shared<const crypto::SecureDocumentStore>(built.take());
  net::TerminalServer server;
  server.RegisterDocument("doc", link.value());
  server.RegisterDocument("bare", bare);
  CHECK_OK(server.Start());

  // The long request waives chunk 0 and trims chunk 1; the short one
  // reads both chunks again with neither, in fewer runs.
  crypto::BatchRequest long_request;
  long_request.runs = {{0, 64}, {256, 320}, {512, 768}};
  long_request.bare_chunks = {0};
  long_request.hints = {{/*chunk=*/1, /*known_nodes=*/0xFF,
                         /*root_known=*/true}};
  crypto::BatchRequest short_request;
  short_request.runs = {{32, 64}, {288, 320}};
  std::vector<uint8_t> long_frame;
  std::vector<uint8_t> short_frame;
  crypto::EncodeBatchRequest(long_request, &long_frame);
  crypto::EncodeBatchRequest(short_request, &short_frame);
  std::vector<uint8_t> corrupt_frame = long_frame;
  corrupt_frame[0] ^= 0x01;  // The request magic.

  const std::pair<std::string, std::shared_ptr<const crypto::BatchTerminal>>
      terminals[] = {{"doc", link.value()}, {"bare", bare}};
  for (const auto& [doc_id, terminal] : terminals) {
    std::printf("  %s\n", doc_id.c_str());
    // In-process fills, each into a fresh response.
    auto expected = [&terminal](const crypto::BatchRequest& request) {
      crypto::BatchResponse response;
      CHECK_OK(terminal->FillBatch(request, &response));
      std::vector<uint8_t> frame;
      crypto::EncodeBatchResponse(response, &frame);
      return frame;
    };
    const std::vector<uint8_t> long_answer = expected(long_request);
    const std::vector<uint8_t> short_answer = expected(short_request);
    CHECK(short_answer != long_answer);

    auto fd = net::ConnectTcp("127.0.0.1", server.port());
    CHECK_OK(fd.status());
    if (!fd.ok()) return;
    net::SetRecvTimeoutNs(fd.value(), 5'000'000'000ULL);
    auto unbound =
        Exchange(fd.value(), net::RecordKind::kBatchRequest, 1, long_frame);
    CHECK_OK(unbound.status());
    if (unbound.ok()) {
      CHECK(unbound.value().kind == net::RecordKind::kError);
      CHECK(net::ReadErrorPayload(unbound.value().payload).code() ==
            StatusCode::kInvalidArgument);
    }
    CHECK_OK(SendBind(fd.value(), doc_id));
    auto ack = net::ReadRecord(fd.value());
    CHECK(ack.ok() && ack.value().kind == net::RecordKind::kBindAck);

    auto answered =
        Exchange(fd.value(), net::RecordKind::kBatchRequest, 2, long_frame);
    CHECK_OK(answered.status());
    if (answered.ok()) {
      CHECK(answered.value().kind == net::RecordKind::kBatchResponse);
      CHECK(answered.value().payload == long_answer);
    }
    auto corrupt =
        Exchange(fd.value(), net::RecordKind::kBatchRequest, 3, corrupt_frame);
    CHECK_OK(corrupt.status());
    if (corrupt.ok()) {
      CHECK(corrupt.value().kind == net::RecordKind::kError);
      CHECK(net::ReadErrorPayload(corrupt.value().payload).code() ==
            StatusCode::kIntegrityError);
    }
    auto shorter =
        Exchange(fd.value(), net::RecordKind::kBatchRequest, 4, short_frame);
    CHECK_OK(shorter.status());
    if (shorter.ok()) {
      CHECK(shorter.value().kind == net::RecordKind::kBatchResponse);
      CHECK(shorter.value().payload == short_answer);
    }
    net::CloseFd(fd.value());
  }
  CHECK_EQ(server.requests_served(), uint64_t{4});
  server.Stop();
}

TEST(StopReturnsWhileAClientSitsIdle) {
  // A terminal server whose handler answered a bind and now waits in
  // ReadRecord for a request that never comes.
  net::TerminalServer server;
  CHECK_OK(server.Start());
  auto client = net::ConnectTcp("127.0.0.1", server.port());
  CHECK_OK(client.status());
  if (!client.ok()) return;
  const std::string doc_id = "nonexistent";
  CHECK_OK(SendBind(client.value(), doc_id));
  auto reply = net::ReadRecord(client.value());
  CHECK(reply.ok() && reply.value().kind == net::RecordKind::kError);
  ExpectPromptStop("TerminalServer::Stop", [&] { server.Stop(); });
  CHECK_EQ(ReadOneByte(client.value()), ssize_t{0});
  net::CloseFd(client.value());

  // A fault proxy whose upstream completes the handshake (the kernel
  // queues it) but never reads or answers: the proxy's handler sits in
  // both pumps' ReadRecord.
  uint16_t silent_port = 0;
  auto silent = net::ListenTcp(0, &silent_port);
  CHECK_OK(silent.status());
  if (!silent.ok()) return;
  net::FaultProxy::Options opts;
  opts.upstream_port = silent_port;
  net::FaultProxy proxy(opts);
  CHECK_OK(proxy.Start());
  auto proxied = net::ConnectTcp("127.0.0.1", proxy.port());
  CHECK_OK(proxied.status());
  if (proxied.ok()) {
    CHECK_OK(SendBind(proxied.value(), doc_id));
    net::SetRecvTimeoutNs(proxied.value(), 100'000'000);
    CHECK(!net::ReadRecord(proxied.value()).ok());  // Nothing answers.
    ExpectPromptStop("FaultProxy::Stop", [&] { proxy.Stop(); });
    CHECK_EQ(ReadOneByte(proxied.value()), ssize_t{0});
    net::CloseFd(proxied.value());
  }
  net::CloseFd(silent.value());
}

TEST(SecondStopDoesNothing) {
  net::TerminalServer server;
  CHECK_OK(server.Start());
  const uint16_t port = server.port();
  net::FaultProxy::Options opts;
  opts.upstream_port = port;
  net::FaultProxy proxy(opts);
  CHECK_OK(proxy.Start());
  for (int round = 0; round < 2; ++round) {
    ExpectPromptStop("FaultProxy::Stop", [&] { proxy.Stop(); });
    ExpectPromptStop("TerminalServer::Stop", [&] { server.Stop(); });
  }
  CHECK_EQ(server.port(), port);
  // Nothing listens any more.
  CHECK(!net::ConnectTcp("127.0.0.1", port).ok());
}

TEST(RefusedUpstreamClosesTheClient) {
  net::TerminalServer vacated_server;
  CHECK_OK(vacated_server.Start());
  const uint16_t vacated = vacated_server.port();
  vacated_server.Stop();
  net::FaultProxy::Options opts;
  opts.upstream_port = vacated;
  net::FaultProxy proxy(opts);
  CHECK_OK(proxy.Start());

  // The proxy cannot dial upstream, so it closes the client: EOF, not a
  // timeout.
  auto client = net::ConnectTcp("127.0.0.1", proxy.port());
  CHECK_OK(client.status());
  if (client.ok()) {
    CHECK_EQ(ReadOneByte(client.value()), ssize_t{0});
    net::CloseFd(client.value());
  }

  // A remote source reading through it runs its ladder out and fails
  // with the retryable class.
  net::RemoteBatchSource::Options remote_opts = RemoteOptions(proxy.port());
  remote_opts.max_attempts = 3;
  net::RemoteBatchSource source(remote_opts);
  crypto::BatchRequest request;
  request.runs.push_back({0, 32});
  auto response = source.ReadBatch(request);
  CHECK(!response.ok());
  if (!response.ok()) {
    CHECK_EQ(static_cast<int>(response.status().code()),
             static_cast<int>(StatusCode::kUnavailable));
  }
  CHECK_EQ(source.transport_stats().retries, uint64_t{2});
  CHECK_EQ(proxy.responses_seen(), uint64_t{0});
  proxy.Stop();
}

TEST(SeededProgramIsDeterministic) {
  auto a = net::FaultProxy::SeededProgram(/*seed=*/7, /*count=*/16,
                                          /*horizon=*/64);
  auto b = net::FaultProxy::SeededProgram(7, 16, 64);
  CHECK_EQ(a.size(), size_t{16});
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    CHECK(a[i].fault == b[i].fault);
    CHECK_EQ(a[i].response_index, b[i].response_index);
    CHECK_EQ(a[i].arg, b[i].arg);
  }
  auto c = net::FaultProxy::SeededProgram(8, 16, 64);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].fault != c[i].fault || a[i].response_index != c[i].response_index)
      differs = true;
  }
  CHECK(differs);
}

TEST(StaleSessionFailsClosedOverTheWire) {
  // The replay-protection contract survives the process boundary: a
  // session opened before a version bump, reading through TCP, still
  // fails with the same IntegrityError class as in-process, after a
  // growing bump and after a shrinking one (the in-process twin is
  // server_test's ShrinkingUpdateStillFailsStaleSessionsClosed). Such a
  // session's next batch may fail on a stale digest before it asks for a
  // range the current store lacks, so the stale range itself is sent
  // too: the old version's tail run, which ends past a shrunk store and
  // mid-document in a grown one.
  const std::string xml = TestDocument(/*folders=*/4);
  const server::DocumentConfig cfg =
      TestConfig(crypto::CipherBackendKind::k3Des);
  auto encoded = index::Encode(xml, cfg.variant);
  CHECK_OK(encoded.status());
  if (!encoded.ok()) return;
  const uint64_t old_size = (encoded.value().bytes.size() + 7) / 8 * 8;
  crypto::BatchRequest old_tail;
  old_tail.runs.push_back(
      {(old_size - 1) / cfg.layout.fragment_size * cfg.layout.fragment_size,
       old_size});
  // The tail is stale after growth only if it ends off a fragment edge.
  CHECK(old_size % cfg.layout.fragment_size != 0);

  const auto rules = access::ParseRuleList("+ //Prescription\n").take();
  for (int bumped_folders : {5, 2}) {
    server::DocumentService service;
    CHECK_OK(service.Publish("doc", xml, cfg));
    net::TerminalServer server;
    server.RegisterDocument("doc", service.TerminalLink("doc").take());
    CHECK_OK(server.Start());
    auto remote =
        std::make_shared<net::RemoteBatchSource>(RemoteOptions(server.port()));
    CHECK_OK(service.AttachTransport("doc", remote));
    CHECK_OK(remote->ReadBatch(old_tail).status());

    auto session = service.OpenSession("doc", rules, pipeline::ServeOptions{});
    CHECK_OK(session.status());
    if (!session.ok()) return;
    CHECK_OK(service.Update("doc", TestDocument(bumped_folders)));
    auto stale = session.value()->Drain();
    CHECK(!stale.ok());
    if (!stale.ok()) {
      CHECK_EQ(static_cast<int>(stale.status().code()),
               static_cast<int>(StatusCode::kIntegrityError));
    }
    auto stale_range = remote->ReadBatch(old_tail);
    CHECK(!stale_range.ok());
    if (!stale_range.ok()) {
      CHECK_EQ(static_cast<int>(stale_range.status().code()),
               static_cast<int>(StatusCode::kIntegrityError));
      CHECK(stale_range.status().message().find("stale session") !=
            std::string::npos);
    }
    server.Stop();
  }
}

TEST(FinishedConnectionsReleaseTheirThreads) {
  // Each connection's handler thread must end with it: a thread kept
  // until Stop() keeps its stack mapped, so a terminal that runs for days
  // would grow with every client it ever served. kOneArena keeps
  // per-thread malloc arenas from masking the stacks.
#ifndef CSXA_SANITIZED
  CHECK_EQ(kOneArena, 1);
#endif
  net::TerminalServer server;
  CHECK_OK(server.Start());
  net::FaultProxy::Options opts;
  opts.upstream_port = server.port();
  net::FaultProxy proxy(opts);
  CHECK_OK(proxy.Start());

  const uint64_t before = VmSizeBytes();
  for (uint16_t port : {server.port(), proxy.port()}) {
    for (int i = 0; i < 200; ++i) {
      auto fd = net::ConnectTcp("127.0.0.1", port);
      CHECK_OK(fd.status());
      if (fd.ok()) net::CloseFd(fd.value());
    }
  }
  // Handlers see EOF and finish on their own schedule; give them 2 s.
  constexpr uint64_t kBound = uint64_t{128} << 20;
  uint64_t growth = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (true) {
    const uint64_t now = VmSizeBytes();
    growth = now > before ? now - before : 0;
    if (growth < kBound || std::chrono::steady_clock::now() >= give_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::printf("  VmSize growth after 400 connections: %.1f MiB\n",
              static_cast<double>(growth) / (1 << 20));
#ifdef CSXA_SANITIZED
  std::printf("  bound skipped: the sanitizer runtime owns the mappings\n");
#else
  CHECK(growth < kBound);
#endif
  proxy.Stop();
  server.Stop();
}

}  // namespace
