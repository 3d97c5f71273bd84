// Artifact server: the full serving recipe, now over HTTP. Build the
// offline artifacts ONCE, persist them as a single mmap-able AMF file,
// re-open the artifact the way a production shard boots, and serve it
// over the HTTP/1.1 transport (server/http_server.h): concurrent clients
// page through POST /query, a respelled query hits the normalized cache,
// a chunked NDJSON stream arrives line by line, and GET /stats reports
// both the service and transport counters before a graceful drain.
//
//   $ ./examples/artifact_server [artifact.amf]
//
// While the server is up you can also talk to it by hand:
//
//   $ curl -s localhost:<port>/query -d '{"query":"SELECT ..."}'
//
// A real server's second boot skips the build entirely: if the artifact
// exists it is opened directly. Delete the file to force a rebuild.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/amber_engine.h"
#include "gen/lubm.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "util/clock.h"
#include "util/json.h"

int main(int argc, char** argv) {
  using namespace amber;

  const std::string path =
      argc > 1 ? argv[1] : std::string("/tmp/amber_artifact_server.amf");
  const char* query =
      "SELECT ?prof ?dept WHERE { "
      "?prof <http://swat.cse.lehigh.edu/onto/univ-bench.owl#worksFor> "
      "?dept . "
      "?prof <http://swat.cse.lehigh.edu/onto/univ-bench.owl#teacherOf> "
      "?course . }";
  // The same query, respelled: different whitespace, comments, variable
  // names. The service's normalized cache key makes this a HIT.
  const char* respelled =
      "# same query, different spelling\n"
      "SELECT ?p ?d\n"
      "WHERE {\n"
      "  ?p <http://swat.cse.lehigh.edu/onto/univ-bench.owl#worksFor> ?d .\n"
      "  ?p <http://swat.cse.lehigh.edu/onto/univ-bench.owl#teacherOf> ?c .\n"
      "}";

  // ---- Offline, once: build + persist ------------------------------------
  // (A production deployment runs this in a pipeline, not in the server.)
  {
    LubmOptions options;
    options.universities = 2;
    auto triples = GenerateLubm(options);
    std::printf("offline: %zu triples\n", triples.size());

    AmberEngine::BuildOptions build_options;
    build_options.num_threads = 4;  // parallel offline stage
    Stopwatch sw;
    auto engine = AmberEngine::Build(triples, build_options);
    if (!engine.ok()) {
      std::fprintf(stderr, "build error: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    std::printf("offline: built in %.1f ms (4 threads)\n",
                sw.ElapsedMillis());
    if (Status s = engine->SaveFile(path); !s.ok()) {
      std::fprintf(stderr, "save error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("offline: saved AMF artifact to %s\n", path.c_str());
  }
  // The built engine is gone; everything below is what a server does.

  // ---- Server boot: mmap the artifact, start service + transport ---------
  Stopwatch sw;
  auto engine = AmberEngine::OpenFile(path);
  if (!engine.ok()) {
    std::fprintf(stderr, "open error: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  ServiceOptions service_options;
  service_options.max_in_flight = 8;    // admission: execute at most 8
  service_options.max_queued = 16;      // ... queue 16 more, then reject
  service_options.cache_entries = 64;   // normalized plan/result LRU
  service_options.default_deadline = std::chrono::milliseconds(1000);
  QueryService service(&engine.value(), service_options);

  HttpServerOptions server_options;  // port 0: the OS picks, port() reads back
  server_options.max_connections = 5;  // one pool worker per connection
  HttpServer server(&service, server_options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("server: booted in %.2f ms — %zu vertices mapped, %d "
              "connection workers, listening on 127.0.0.1:%u\n",
              sw.ElapsedMillis(), engine->graph().NumVertices(),
              server_options.max_connections, server.port());

  // A request body on the wire schema (server/wire.h).
  auto body = [](const char* text, uint64_t offset, uint64_t limit) {
    json::Writer w;
    w.BeginObject();
    w.KV("query", text);
    if (offset != 0) w.KV("offset", offset);
    if (limit != 0) w.KV("limit", limit);
    w.EndObject();
    return w.Take();
  };

  // ---- Concurrent HTTP clients -------------------------------------------
  // Four clients page through the same result set over loopback; the
  // first execution fills the cache, every later page is served from the
  // retained handle.
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&server, &body, c, query] {
      HttpClient client(server.port());
      const uint64_t offset = static_cast<uint64_t>(c) * 5;
      auto resp = client.Post("/query", body(query, offset, 5));
      if (!resp.ok() || resp->status != 200) {
        std::fprintf(stderr, "client %d: %s (http %d)\n", c,
                     resp.ok() ? "error" : resp.status().ToString().c_str(),
                     resp.ok() ? resp->status : 0);
        return;
      }
      auto doc = json::Parse(resp->body);
      if (!doc.ok()) return;
      const json::Value* rows = doc->Find("rows");
      const json::Value* total = doc->Find("total_rows");
      std::printf("client %d: rows [%llu, %llu) of %llu over HTTP\n", c,
                  static_cast<unsigned long long>(offset),
                  static_cast<unsigned long long>(
                      offset + (rows != nullptr ? rows->array.size() : 0)),
                  static_cast<unsigned long long>(
                      total != nullptr ? total->uint_v : 0));
    });
  }
  for (auto& t : clients) t.join();

  HttpClient client(server.port());

  // A respelled equivalent query: normalization makes it hit the cache.
  // include_stats opts into the nondeterministic fields (cache_hit).
  {
    json::Writer w;
    w.BeginObject();
    w.KV("query", respelled);
    w.KV("include_stats", true);
    w.EndObject();
    auto hit = client.Post("/query", w.Take());
    if (hit.ok() && hit->status == 200) {
      auto doc = json::Parse(hit->body);
      const json::Value* cache_hit =
          doc.ok() ? doc->Find("cache_hit") : nullptr;
      const json::Value* total = doc.ok() ? doc->Find("total_rows") : nullptr;
      std::printf("respelled query: %s, %llu rows over HTTP\n",
                  cache_hit != nullptr && cache_hit->bool_v ? "cache HIT"
                                                            : "miss",
                  static_cast<unsigned long long>(
                      total != nullptr ? total->uint_v : 0));
    }
  }

  // Chunked NDJSON streaming: pages arrive as the matcher produces them.
  {
    int lines = 0;
    auto stream = client.PostStream("/query/stream", body(query, 0, 0),
                                    [&lines](std::string_view) {
                                      ++lines;
                                      return true;
                                    });
    if (stream.ok() && stream->status == 200) {
      std::printf("stream: %d NDJSON lines (%zu bytes), terminator %s\n",
                  lines, stream->body.size(),
                  stream->chunked_complete ? "received" : "missing");
    }
  }

  // The transport's own observability endpoint.
  {
    auto stats = client.Get("/stats");
    if (stats.ok() && stats->status == 200) {
      auto doc = json::Parse(stats->body);
      if (doc.ok()) {
        const json::Value* svc = doc->Find("service");
        const json::Value* srv = doc->Find("server");
        std::printf(
            "server: %llu queries (%llu cache hits), %llu HTTP requests on "
            "%llu connections, %llu bytes written\n",
            static_cast<unsigned long long>(svc->Find("queries")->uint_v),
            static_cast<unsigned long long>(svc->Find("cache_hits")->uint_v),
            static_cast<unsigned long long>(srv->Find("requests")->uint_v),
            static_cast<unsigned long long>(
                srv->Find("connections_accepted")->uint_v),
            static_cast<unsigned long long>(
                srv->Find("bytes_written")->uint_v));
      }
    }
  }

  client.Close();
  server.Stop();  // graceful drain: grace, then cancel, then Shutdown()
  std::printf("server: drained\n");
  return 0;
}
