#include "loadgen.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>
#include <thread>

#include "server/wire.h"
#include "sparql/parser.h"

namespace servebench {
namespace {

using amber::Result;
using amber::Status;

// FNV-1a over delimited cells: var names and rows are hashed separately so
// a stream, whose var names arrive after its rows, can be digested as it
// is read.
class Fnv {
 public:
  void Cell(std::string_view s) {
    for (const char c : s) Byte(static_cast<unsigned char>(c));
    Byte(0x1f);
  }
  void EndRow() { Byte(0x1e); }
  uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t Combine(const std::vector<std::string>& vars, const Fnv& rows) {
  Fnv v;
  for (const std::string& name : vars) v.Cell(name);
  return v.value() * 0x9E3779B97F4A7C15ull ^ rows.value();
}

Status Mismatch(const std::string& what) {
  return Status::Internal("wrong answer: " + what);
}

// Parses a /query rows-form body and compares it with `e`.
Result<uint64_t> CheckPage(const Expected& e, std::string_view body) {
  AMBER_ASSIGN_OR_RETURN(amber::QueryResponse resp,
                         amber::wire::ParseResponse(body));
  if (resp.timed_out || resp.cancelled) {
    return Status::Timeout("response timed out or was cancelled");
  }
  if (resp.total_rows != e.total_rows) {
    return Mismatch("total_rows " + std::to_string(resp.total_rows) +
                    " != " + std::to_string(e.total_rows));
  }
  Fnv rows;
  for (const auto& row : resp.rows) {
    for (const std::string& cell : row) rows.Cell(cell);
    rows.EndRow();
  }
  if (Combine(resp.var_names, rows) != e.digest) return Mismatch("page rows");
  return resp.rows.size();
}

// Parses a /query/stream NDJSON body (pages, then one summary line).
Result<uint64_t> CheckStream(const Expected& e, std::string_view body) {
  Fnv rows;
  uint64_t n = 0;
  bool summary_seen = false;
  std::vector<std::string> vars;
  uint64_t streamed = 0;
  bool complete = false;
  for (size_t pos = 0; pos < body.size();) {
    size_t nl = body.find('\n', pos);
    if (nl == std::string_view::npos) nl = body.size();
    const std::string_view line = body.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    AMBER_ASSIGN_OR_RETURN(amber::json::Value v, amber::json::Parse(line));
    if (const amber::json::Value* s = v.Find("summary")) {
      summary_seen = true;
      if (const amber::json::Value* names = s->Find("var_names")) {
        for (const amber::json::Value& name : names->array) {
          vars.push_back(name.str_v);
        }
      }
      if (const amber::json::Value* r = s->Find("rows_streamed")) {
        streamed = r->uint_v;
      }
      if (const amber::json::Value* c = s->Find("complete")) {
        complete = c->bool_v;
      }
      continue;
    }
    const amber::json::Value* page = v.Find("rows");
    if (page == nullptr) return Mismatch("stream line without rows");
    for (const amber::json::Value& row : page->array) {
      for (const amber::json::Value& cell : row.array) rows.Cell(cell.str_v);
      rows.EndRow();
      ++n;
    }
  }
  if (!summary_seen || !complete) return Status::Timeout("stream incomplete");
  if (streamed != e.total_rows || n != e.rows) {
    return Mismatch("rows_streamed " + std::to_string(streamed) + " != " +
                    std::to_string(e.total_rows));
  }
  if (Combine(vars, rows) != e.digest) return Mismatch("stream rows");
  return n;
}

// Nearest-rank percentile `p` of `sorted`, lowered to the highest
// percentile with at least ten samples above it.
double TailPercentile(const std::vector<double>& sorted, double p) {
  const size_t n = sorted.size();
  if (n == 0) return 0;
  size_t idx = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  idx = idx == 0 ? 0 : idx - 1;
  if (n >= 11 && n - 1 - idx < 10) idx = n - 11;
  return sorted[std::min(idx, n - 1)];
}

}  // namespace

Result<Expected> Reference(amber::AmberEngine& engine, const Workload& w,
                           const Request& r) {
  AMBER_ASSIGN_OR_RETURN(amber::SelectQuery q,
                         amber::SparqlParser::Parse(r.text));
  amber::ExecOptions exec;
  exec.max_rows =
      w.stream ? r.offset + r.limit : BenchServiceOptions().max_result_rows;
  AMBER_ASSIGN_OR_RETURN(amber::MaterializedRows mr,
                         engine.Materialize(q, exec));
  if (mr.stats.timed_out) return Status::Timeout("reference timed out");
  const uint64_t size = mr.rows.size();
  const uint64_t begin = std::min(r.offset, size);
  const uint64_t end = r.limit == 0 ? size : std::min(begin + r.limit, size);
  Fnv rows;
  for (uint64_t i = begin; i < end; ++i) {
    for (const std::string& cell : mr.rows[i]) rows.Cell(cell);
    rows.EndRow();
  }
  Expected e;
  e.digest = Combine(mr.var_names, rows);
  e.rows = end - begin;
  e.total_rows = w.stream ? e.rows : size;
  return e;
}

Outcome Client::Send(uint32_t index) {
  Outcome out;
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = conn_.RoundTrip(w_.requests[index].http, &reply_);
  out.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
  if (!st.ok()) {
    out.error = st.ToString();
    return out;
  }
  if (reply_.status != 200) {
    out.error = "HTTP " + std::to_string(reply_.status) + ": " +
                reply_.body.substr(0, 200);
    return out;
  }
  out.bytes = reply_.body.size();
  const size_t h = std::hash<std::string_view>()(reply_.body);
  for (const auto& [seen, rows] : verified_[index]) {
    if (seen == h) {
      out.ok = true;
      out.rows = rows;
      return out;
    }
  }
  const Expected& e = expected_[index];
  Result<uint64_t> rows =
      w_.stream ? CheckStream(e, reply_.body) : CheckPage(e, reply_.body);
  if (!rows.ok()) {
    out.error = rows.status().ToString();
    return out;
  }
  verified_[index].emplace_back(h, *rows);
  out.ok = true;
  out.rows = *rows;
  return out;
}

Phase RunPhase(const Workload& w, std::vector<std::unique_ptr<Client>>& clients,
               uint64_t passes) {
  const size_t pass_len = w.sequence.size();
  const uint64_t total = passes * pass_len;
  Phase all;
  all.latencies_ms.resize(total);
  std::vector<double> done_s(total);  // completion time of each request
  std::vector<Phase> parts(clients.size());
  std::atomic<uint64_t> next{0};
  std::atomic<int> errors_printed{0};
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        Phase& p = parts[c];
        for (uint64_t i; (i = next.fetch_add(1)) < total;) {
          const Outcome o = clients[c]->Send(w.sequence[i % pass_len]);
          done_s[i] = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
          all.latencies_ms[i] = o.ms;
          ++p.attempted;
          if (!o.ok) {
            ++p.failed;
            if (errors_printed.fetch_add(1) < 5) {
              std::fprintf(stderr, "servebench: request failed: %s\n",
                           o.error.c_str());
            }
            continue;
          }
          p.rows += o.rows;
          p.bytes += o.bytes;
        }
      });
    }
  }
  all.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  for (const Phase& p : parts) {
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.rows += p.rows;
    all.bytes += p.bytes;
  }
  // A pass ends when its last request completes.
  double prev_end = 0;
  for (uint64_t k = 0; k < passes; ++k) {
    const double end = *std::max_element(done_s.begin() + k * pass_len,
                                         done_s.begin() + (k + 1) * pass_len);
    all.pass_s.push_back(end - prev_end);
    prev_end = end;
  }
  return all;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double BlockPercentile(const std::vector<double>& latencies_ms,
                       size_t pass_len, double p) {
  constexpr size_t kMinBlock = 1000;
  constexpr size_t kMinBlocks = 3;
  const size_t block = (kMinBlock + pass_len - 1) / pass_len * pass_len;
  size_t blocks = latencies_ms.size() / block;
  if (blocks < kMinBlocks) blocks = 1;
  const size_t len = blocks == 1 ? latencies_ms.size() : block;
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<double> sorted(latencies_ms.begin() + b * len,
                               latencies_ms.begin() + (b + 1) * len);
    std::sort(sorted.begin(), sorted.end());
    per_block.push_back(TailPercentile(sorted, p));
  }
  return Median(per_block);
}

double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  // Fields 3.. of proc(5); utime and stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ProcessPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

Result<amber::json::Value> FetchStats(HttpConn& conn) {
  Reply reply;
  AMBER_RETURN_IF_ERROR(conn.Get("/stats", &reply));
  if (reply.status != 200) {
    return Status::IOError("GET /stats: HTTP " + std::to_string(reply.status));
  }
  return amber::json::Parse(reply.body);
}

uint64_t StatsCounter(const amber::json::Value& stats, const char* section,
                      const char* key) {
  const amber::json::Value* s = stats.Find(section);
  const amber::json::Value* v = s != nullptr ? s->Find(key) : nullptr;
  return v != nullptr ? v->uint_v : 0;
}

}  // namespace servebench
