// Stress/fuzz wall for the asynchronous ledger writer
// (obs/async_writer.hpp): codec round-trips under fuzzed records, a
// concurrent multi-producer + drainer hammer, forced ring overflow with
// observable drop counters, flush-at-exit ordering (also of a process
// that exits with records still queued), recording that never waits for
// a blocked file write, and the headline
// contract — the drained JSONL is BYTE-identical to the header plus the
// *_record_json lines of the same record stream.
#include "obs/async_writer.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/ledger.hpp"
#include "util/rng.hpp"

namespace {

using namespace fedra;
using namespace fedra::obs;

struct LedgerGuard {
  LedgerGuard() { RunLedger::disable(); }
  ~LedgerGuard() { RunLedger::disable(); }
};

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// Appends the lines of one sink call, which must be whole lines that
/// each end in '\n', to `lines` (without the newlines).
void split_lines(const std::string& chunk, std::vector<std::string>& lines) {
  EXPECT_FALSE(chunk.empty());
  EXPECT_EQ(chunk.back(), '\n') << "sink got a torn line";
  std::size_t begin = 0;
  for (std::size_t end; (end = chunk.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    lines.push_back(chunk.substr(begin, end - begin));
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

RoundRecord fuzz_round(Rng& rng) {
  RoundRecord r;
  r.round = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
  r.source = rng.bernoulli(0.5) ? "sim" : "async";
  r.start_time = rng.uniform(-1e6, 1e6);
  r.iteration_time = rng.uniform(0.0, 1e3);
  r.total_energy = rng.uniform(0.0, 1e3);
  r.time_term = rng.uniform(0.0, 1e3);
  r.energy_term = rng.uniform(0.0, 1e3);
  r.cost = r.time_term + r.energy_term;
  r.reward = -r.cost;
  r.num_scheduled = static_cast<std::size_t>(rng.uniform_int(0, 64));
  r.num_completed = static_cast<std::size_t>(rng.uniform_int(0, 64));
  r.num_crashes = static_cast<std::size_t>(rng.uniform_int(0, 8));
  r.num_dropouts = static_cast<std::size_t>(rng.uniform_int(0, 8));
  r.num_timeouts = static_cast<std::size_t>(rng.uniform_int(0, 8));
  r.num_upload_failures = static_cast<std::size_t>(rng.uniform_int(0, 8));
  r.total_retries = static_cast<std::size_t>(rng.uniform_int(0, 32));
  r.devices_omitted = static_cast<std::size_t>(rng.uniform_int(0, 1000));
  const std::size_t nd = static_cast<std::size_t>(rng.uniform_int(0, 6));
  for (std::size_t d = 0; d < nd; ++d) {
    DeviceRoundRecord dev;
    dev.device = static_cast<std::uint32_t>(d);
    dev.participated = rng.bernoulli(0.8);
    dev.completed = rng.bernoulli(0.7);
    dev.failure = rng.bernoulli(0.2) ? "timeout" : "none";
    dev.retries = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
    dev.freq_hz = rng.uniform(1e8, 2e9);
    dev.compute_time = rng.uniform(0.0, 10.0);
    dev.comm_time = rng.uniform(0.0, 10.0);
    dev.idle_time = rng.uniform(0.0, 10.0);
    dev.compute_energy = rng.uniform(0.0, 5.0);
    dev.comm_energy = rng.uniform(0.0, 5.0);
    dev.energy = dev.compute_energy + dev.comm_energy;
    dev.avg_bandwidth = rng.uniform(1e3, 1e8);
    r.devices.push_back(dev);
  }
  return r;
}

DecisionRecord fuzz_decision(Rng& rng) {
  DecisionRecord d;
  d.round = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
  d.source = rng.bernoulli(0.5) ? "env" : "ctl";
  d.predicted_time = rng.uniform(0.0, 100.0);
  d.predicted_energy = rng.uniform(0.0, 100.0);
  d.predicted_cost = rng.uniform(0.0, 100.0);
  d.realized_time = rng.uniform(0.0, 100.0);
  d.realized_energy = rng.uniform(0.0, 100.0);
  d.realized_cost = rng.uniform(0.0, 100.0);
  d.reward = rng.uniform(-10.0, 0.0);
  const std::size_t na = static_cast<std::size_t>(rng.uniform_int(0, 8));
  for (std::size_t i = 0; i < na; ++i) d.action.push_back(rng.uniform());
  const std::size_t ns = static_cast<std::size_t>(rng.uniform_int(0, 16));
  for (std::size_t i = 0; i < ns; ++i) {
    d.state.push_back(rng.uniform(-5.0, 5.0));
  }
  return d;
}

FlRoundRecord fuzz_fl_round(Rng& rng) {
  FlRoundRecord f;
  f.round = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
  f.global_loss = rng.uniform(0.0, 3.0);
  f.global_accuracy = rng.uniform(0.0, 1.0);
  f.mean_client_loss = rng.uniform(0.0, 3.0);
  f.num_participants = static_cast<std::size_t>(rng.uniform_int(0, 32));
  f.num_delivered = static_cast<std::size_t>(rng.uniform_int(0, 32));
  return f;
}

// The frame codecs are what cross the ring: encode -> decode must
// reproduce the record exactly (the JSON formatter then guarantees the
// byte-identical line).
TEST(AsyncLedger, CodecRoundTripsFuzzedRecords) {
  Rng rng(101);
  std::vector<std::uint8_t> buf;
  for (int iter = 0; iter < 500; ++iter) {
    {
      RoundRecord in = fuzz_round(rng);
      encode_round_payload(in, buf);
      RoundRecord out;
      ASSERT_TRUE(decode_round_payload(buf.data(), buf.size(), out));
      EXPECT_EQ(round_record_json(in), round_record_json(out));
    }
    {
      DecisionRecord in = fuzz_decision(rng);
      encode_decision_payload(in, buf);
      DecisionRecord out;
      ASSERT_TRUE(decode_decision_payload(buf.data(), buf.size(), out));
      EXPECT_EQ(decision_record_json(in), decision_record_json(out));
    }
    {
      FlRoundRecord in = fuzz_fl_round(rng);
      encode_fl_round_payload(in, buf);
      FlRoundRecord out;
      ASSERT_TRUE(decode_fl_round_payload(buf.data(), buf.size(), out));
      EXPECT_EQ(fl_round_record_json(in), fl_round_record_json(out));
    }
  }
}

// Truncated payloads must be rejected, never read out of bounds.
TEST(AsyncLedger, DecoderRejectsTruncatedPayloads) {
  Rng rng(202);
  RoundRecord r = fuzz_round(rng);
  std::vector<std::uint8_t> buf;
  encode_round_payload(r, buf);
  RoundRecord out;
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_FALSE(decode_round_payload(buf.data(), len, out))
        << "accepted truncation at " << len << "/" << buf.size();
  }
  DecisionRecord d = fuzz_decision(rng);
  encode_decision_payload(d, buf);
  DecisionRecord dout;
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_FALSE(decode_decision_payload(buf.data(), len, dout));
  }
}

// Single producer: drained output must be the records' JSONL in order.
TEST(AsyncLedger, DrainsInOrderAndWaitDrainedIsComplete) {
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  AsyncLedgerWriter writer(1 << 16, [&](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(lines_mutex);
    split_lines(chunk, lines);
  });

  Rng rng(303);
  std::vector<std::string> expected;
  for (int i = 0; i < 200; ++i) {
    DecisionRecord d = fuzz_decision(rng);
    d.round = static_cast<std::size_t>(i);
    while (!writer.enqueue_decision(d)) {
      writer.wait_drained();  // tiny test machine: don't spin-drop
    }
    expected.push_back(decision_record_json(d));
  }
  writer.wait_drained();
  {
    std::lock_guard<std::mutex> lock(lines_mutex);
    ASSERT_EQ(lines.size(), expected.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i], expected[i]) << "line " << i;
    }
  }
  EXPECT_EQ(writer.accepted(), 200u);
  EXPECT_EQ(writer.dropped(), 0u);
  writer.stop();
}

// Multi-producer hammer: N threads enqueue concurrently while the drainer
// runs. Every ACCEPTED record must surface exactly once (order across
// producers is unspecified; per the producer lock it is some
// interleaving), and accepted + dropped must equal the attempts.
TEST(AsyncLedger, ConcurrentProducersLoseNothingAccepted) {
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  AsyncLedgerWriter writer(1 << 14, [&](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(lines_mutex);
    split_lines(chunk, lines);
  });

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 300;
  std::atomic<std::uint64_t> sent{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1000 + static_cast<std::uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        FlRoundRecord f = fuzz_fl_round(rng);
        f.round = static_cast<std::size_t>(p * kPerProducer + i);
        if (writer.enqueue_fl_round(f)) {
          sent.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  writer.wait_drained();

  EXPECT_EQ(writer.accepted(), sent.load());
  EXPECT_EQ(writer.accepted() + writer.dropped(),
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  std::lock_guard<std::mutex> lock(lines_mutex);
  EXPECT_EQ(lines.size(), static_cast<std::size_t>(sent.load()));
  writer.stop();
}

// A ring too small for the stream must DROP (never block, never tear):
// the drop counter is observable and the drained lines are exactly the
// accepted records.
TEST(AsyncLedger, OverflowDropsWholeRecordsAndCounts) {
  // Stall the sink so the ring genuinely fills.
  std::atomic<bool> release{false};
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  AsyncLedgerWriter writer(4096, [&](const std::string& chunk) {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::lock_guard<std::mutex> lock(lines_mutex);
    split_lines(chunk, lines);
  });

  Rng rng(404);
  std::vector<std::string> accepted_json;
  for (int i = 0; i < 500; ++i) {
    DecisionRecord d = fuzz_decision(rng);
    d.round = static_cast<std::size_t>(i);
    if (writer.enqueue_decision(d)) {
      accepted_json.push_back(decision_record_json(d));
    }
  }
  EXPECT_GT(writer.dropped(), 0u) << "4 KiB ring cannot hold 500 records";
  EXPECT_EQ(writer.accepted(), accepted_json.size());

  release.store(true, std::memory_order_release);
  writer.wait_drained();
  {
    std::lock_guard<std::mutex> lock(lines_mutex);
    ASSERT_EQ(lines.size(), accepted_json.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i], accepted_json[i]) << "line " << i;
    }
  }
  writer.stop();
}

// stop() must drain everything accepted before joining (flush-at-exit
// ordering) even with no explicit wait_drained().
TEST(AsyncLedger, StopDrainsBeforeJoining) {
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  {
    AsyncLedgerWriter writer(1 << 16, [&](const std::string& chunk) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      split_lines(chunk, lines);
    });
    Rng rng(505);
    for (int i = 0; i < 50; ++i) {
      FlRoundRecord f = fuzz_fl_round(rng);
      ASSERT_TRUE(writer.enqueue_fl_round(f));
    }
    // Destructor path: stop() without wait_drained().
  }
  EXPECT_EQ(lines.size(), 50u);
}

// Headline contract through the PUBLIC RunLedger facade: the drained file
// must equal, byte for byte, the header line followed by the
// *_record_json() formatting of every record in the order it was recorded.
TEST(AsyncLedger, AsyncFileBitwiseEqualsRecordFormatters) {
  LedgerGuard guard;
  Rng record_rng(606);
  std::vector<RoundRecord> rounds;
  std::vector<DecisionRecord> decisions;
  std::vector<FlRoundRecord> fl_rounds;
  for (int i = 0; i < 40; ++i) {
    rounds.push_back(fuzz_round(record_rng));
    decisions.push_back(fuzz_decision(record_rng));
    fl_rounds.push_back(fuzz_fl_round(record_rng));
  }

  const std::string path = temp_path("ledger_async.jsonl");
  LedgerConfig cfg;
  cfg.path = path;
  cfg.run_id = "bitwise-test";
  cfg.lambda = 0.5;
  cfg.ring_bytes = 1 << 20;  // ample: nothing may drop
  ASSERT_TRUE(RunLedger::enable(cfg));
  std::string expected = std::string("{\"type\":\"header\",\"schema\":\"") +
                         kLedgerSchema +
                         "\",\"run_id\":\"bitwise-test\",\"lambda\":0.5}\n";
  for (std::size_t i = 0; i < 40; ++i) {
    RunLedger::record_round(rounds[i]);
    RunLedger::record_decision(decisions[i]);
    RunLedger::record_fl_round(fl_rounds[i]);
    expected += round_record_json(rounds[i]) + '\n';
    expected += decision_record_json(decisions[i]) + '\n';
    expected += fl_round_record_json(fl_rounds[i]) + '\n';
  }
  RunLedger::flush();
  EXPECT_EQ(RunLedger::records_written(), 120u);
  EXPECT_EQ(RunLedger::dropped_records(), 0u);
  RunLedger::disable();

  EXPECT_EQ(slurp(path), expected);

  // And the reader parses the file cleanly.
  Ledger parsed;
  ASSERT_TRUE(read_ledger_file(path, parsed));
  EXPECT_EQ(parsed.rounds.size(), 40u);
  EXPECT_EQ(parsed.decisions.size(), 40u);
  EXPECT_EQ(parsed.fl_rounds.size(), 40u);
  EXPECT_EQ(parsed.parse_errors, 0u);

  std::remove(path.c_str());
}

// Overflow through the facade: a tiny ring must surface drops via
// dropped_records() while the file still holds exactly the accepted
// records (all parseable — drops are whole records, not torn lines).
TEST(AsyncLedger, FacadeOverflowIsCountedAndFileStaysWellFormed) {
  LedgerGuard guard;
  const std::string path = temp_path("ledger_overflow.jsonl");
  LedgerConfig cfg;
  cfg.path = path;
  cfg.run_id = "overflow-test";
  cfg.ring_bytes = 4096;  // min ring: force congestion
  ASSERT_TRUE(RunLedger::enable(cfg));

  Rng rng(707);
  const int kTotal = 4000;
  for (int i = 0; i < kTotal; ++i) {
    DecisionRecord d = fuzz_decision(rng);
    d.round = static_cast<std::size_t>(i);
    RunLedger::record_decision(d);
  }
  RunLedger::flush();
  const std::uint64_t written = RunLedger::records_written();
  const std::uint64_t dropped = RunLedger::dropped_records();
  EXPECT_EQ(written + dropped, static_cast<std::uint64_t>(kTotal));
  RunLedger::disable();

  Ledger parsed;
  ASSERT_TRUE(read_ledger_file(path, parsed));
  EXPECT_EQ(parsed.decisions.size(), static_cast<std::size_t>(written));
  EXPECT_EQ(parsed.parse_errors, 0u);
  std::remove(path.c_str());
}

// Recording never waits for the drainer's file writes. The ledger file
// is a FIFO that nobody reads yet, so the drainer blocks in write() once
// the pipe and the stream buffer are full; every record_round must still
// return at once, because it only enqueues into the ring.
TEST(AsyncLedger, RecordingDoesNotWaitForABlockedFileWrite) {
  LedgerGuard guard;
  const std::string path = temp_path("ledger_fifo");
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  // Open the read end first (non-blocking, so this open does not wait for
  // a writer); then enable()'s open of the write end does not block.
  const int reader = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  LedgerConfig cfg;
  cfg.path = path;
  cfg.run_id = "fifo-test";
  cfg.ring_bytes = 1 << 23;  // ample: nothing may drop
  ASSERT_TRUE(RunLedger::enable(cfg));

  // ~2.4 MB of JSON lines, far past a pipe's capacity.
  constexpr std::size_t kRounds = 2000;
  Rng rng(909);
  std::vector<RoundRecord> rounds;
  for (std::size_t i = 0; i < kRounds; ++i) rounds.push_back(fuzz_round(rng));
  auto recording = std::async(std::launch::async, [&] {
    for (const RoundRecord& r : rounds) RunLedger::record_round(r);
  });
  EXPECT_EQ(recording.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "record_round waited for the blocked drainer";

  // Read the FIFO to its end, which unblocks the drainer.
  ASSERT_EQ(::fcntl(reader, F_SETFL, 0), 0);
  std::string bytes;
  std::thread drain([&] {
    char buf[1 << 16];
    for (ssize_t n; (n = ::read(reader, buf, sizeof(buf))) > 0;) {
      bytes.append(buf, static_cast<std::size_t>(n));
    }
  });
  recording.wait();
  RunLedger::flush();
  EXPECT_EQ(RunLedger::dropped_records(), 0u);
  RunLedger::disable();  // closes the write end: the reader sees EOF
  drain.join();
  ::close(reader);
  std::remove(path.c_str());

  std::istringstream in(bytes);
  const Ledger parsed = read_ledger(in);
  EXPECT_EQ(parsed.run_id, "fifo-test");
  EXPECT_EQ(parsed.rounds.size(), kRounds);
  EXPECT_EQ(parsed.parse_errors, 0u);
}

// A process that exits while records are still queued loses none of
// them: the first enable() registers an exit-time disable() that drains
// the ring and closes the file.
TEST(AsyncLedger, ExitDrainsEveryQueuedRecord) {
  const std::string path = temp_path("ledger_exit.jsonl");
  std::remove(path.c_str());
  constexpr std::size_t kRounds = 300;
  EXPECT_EXIT(
      {
        LedgerConfig cfg;
        cfg.path = path;
        cfg.run_id = "exit-test";
        cfg.ring_bytes = 1 << 22;  // ample: nothing may drop
        if (!RunLedger::enable(cfg)) std::exit(3);
        Rng rng(808);
        for (std::size_t i = 0; i < kRounds; ++i) {
          RoundRecord r = fuzz_round(rng);
          r.round = i;
          RunLedger::record_round(r);
        }
        std::exit(RunLedger::dropped_records() == 0 ? 0 : 4);
      },
      ::testing::ExitedWithCode(0), "");

  Ledger parsed;
  ASSERT_TRUE(read_ledger_file(path, parsed));
  EXPECT_EQ(parsed.schema, kLedgerSchema);
  EXPECT_EQ(parsed.run_id, "exit-test");
  EXPECT_EQ(parsed.rounds.size(), kRounds);
  EXPECT_EQ(parsed.parse_errors, 0u);
  std::remove(path.c_str());
}

}  // namespace
