// certchain-query: one-shot client for a running certchain-serve daemon.
//
//   certchain-query --port <n> [--host <ip>] [--timeout <ms>]
//                   [--retries <n>] [--idempotency-key <key>] <command> [args]
//
// --timeout bounds every socket operation (ms, <= 4294967295; 0 = none);
// --retries arms bounded exponential backoff (<= 4294967295; OVERLOADED
// always retried; transport failures only for idempotent requests).
// --idempotency-key makes `ingest` safe to retry: the server folds the
// batch exactly once no matter how many times the request arrives
// (DESIGN.md §13.4). Numbers take digits only; --port is 1-65535.
//
// commands:
//   ping
//   classify <issuer-dn>           §3.2.1 issuer classification
//   categorize <pem-file|->        categorize a delivered chain (PEM bundle)
//   report [section]               totals|categories|interception|hybrid|
//                                  non_public|ct|graphs|full (default full)
//   ingest <ssl.log> <x509.log>    append log rows to the live corpus
//   metrics                        the server's certchain.obs.metrics JSON
//   ct-sth                         current signed tree heads of every CT log
//   ct-prove <fingerprint> [log-id] inclusion proof (NOT_FOUND if unlogged)
//   ct-status                      CT monitor counters and checkpoints
//   fleet-status                   completed revisit epochs (§17)
//   epoch-delta [epoch]            delta ending at <epoch> (default latest;
//                                  NOT_FOUND for unknown indices)
//   shutdown                       ask the daemon to drain and exit
//
// Prints the response payload (JSON; for `report` the rendered text) to
// stdout. Exit codes: 0 success, 1 typed server error, 2 usage (checked
// before connecting, input files included), 3 transport failure.
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "svc/client.hpp"
#include "util/strings.hpp"

namespace {

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port <n> [--host <ip>] [--timeout <ms>]\n"
               "       [--retries <n>] [--idempotency-key <key>] <command> "
               "[args]\n"
               "commands: ping | classify <dn> | categorize <pem-file|-> |\n"
               "          report [section] | ingest <ssl.log> <x509.log> |\n"
               "          metrics | ct-sth | ct-prove <fingerprint> [log-id] |\n"
               "          ct-status | fleet-status | epoch-delta [epoch] |\n"
               "          shutdown\n",
               argv0);
}

bool slurp(const std::string& path, std::string& out) {
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    out = buffer.str();
    return true;
  }
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Splits a Zeek log text into its body rows ('#' headers dropped).
std::vector<std::string> body_rows(const std::string& text) {
  std::vector<std::string> rows;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin && text[begin] != '#') {
      rows.emplace_back(text.substr(begin, end - begin));
    }
    begin = end + 1;
  }
  return rows;
}

int render_response(const std::optional<certchain::svc::Response>& response,
                    bool report_text) {
  using certchain::svc::MessageType;
  if (!response.has_value()) {
    std::fprintf(stderr, "certchain-query: connection failed mid-request\n");
    return 3;
  }
  if (response->frame.type == MessageType::kError) {
    std::fprintf(stderr, "certchain-query: server error %s: %s\n",
                 certchain::svc::error_code_name(response->error).data(),
                 response->error_message.c_str());
    return 1;
  }
  if (report_text) {
    if (const auto* text = response->payload.find("text")) {
      std::fputs(text->string.c_str(), stdout);
      return 0;
    }
  }
  std::fputs(response->frame.payload.c_str(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace certchain;

  std::string host = "127.0.0.1";
  std::string idempotency_key;
  std::uint16_t port = 0;
  std::uint32_t timeout_ms = 0;
  std::uint32_t retries = 0;
  int arg = 1;
  for (; arg < argc; ++arg) {
    const std::string_view flag = argv[arg];
    if (flag == "--port" || flag == "--host" || flag == "--timeout" ||
        flag == "--retries" || flag == "--idempotency-key") {
      if (arg + 1 >= argc) {
        print_usage(argv[0]);
        return 2;
      }
      const char* value = argv[++arg];
      if (flag == "--host") {
        host = value;
        continue;
      }
      if (flag == "--idempotency-key") {
        idempotency_key = value;
        continue;
      }
      bool valid = false;
      if (flag == "--port") {
        valid = util::store(util::parse_count<std::uint16_t>(value), port) &&
                port != 0;
      } else if (flag == "--timeout") {
        valid = util::store(util::parse_count<std::uint32_t>(value), timeout_ms);
      } else {
        valid = util::store(util::parse_count<std::uint32_t>(value), retries);
      }
      if (!valid) {
        print_usage(argv[0]);
        return 2;
      }
    } else {
      break;
    }
  }
  if (port == 0 || arg >= argc) {
    print_usage(argv[0]);
    return 2;
  }
  const std::string_view command = argv[arg];
  const int extra = argc - arg - 1;

  // The command, its arguments and its input files are resolved before
  // connecting, so a usage error exits 2 even when no daemon is listening.
  std::function<std::optional<svc::Response>(svc::Client&)> request;
  if (command == "ping" && extra == 0) {
    request = [](svc::Client& client) { return client.ping(); };
  } else if (command == "classify" && extra == 1) {
    request = [dn = argv[arg + 1]](svc::Client& client) {
      return client.classify_issuer(dn);
    };
  } else if (command == "categorize" && extra == 1) {
    std::string pem;
    if (!slurp(argv[arg + 1], pem)) {
      std::fprintf(stderr, "certchain-query: cannot read %s\n", argv[arg + 1]);
      return 2;
    }
    request = [pem = std::move(pem)](svc::Client& client) {
      return client.categorize_chain_pem(pem);
    };
  } else if (command == "report" && extra <= 1) {
    request = [section = extra == 1 ? argv[arg + 1] : "full"](
                  svc::Client& client) { return client.report_section(section); };
  } else if (command == "ingest" && extra == 2) {
    std::string ssl_text;
    std::string x509_text;
    if (!slurp(argv[arg + 1], ssl_text) || !slurp(argv[arg + 2], x509_text)) {
      std::fprintf(stderr, "certchain-query: cannot read input logs\n");
      return 2;
    }
    request = [ssl_rows = body_rows(ssl_text), x509_rows = body_rows(x509_text),
               &idempotency_key](svc::Client& client) {
      return client.ingest_append(ssl_rows, x509_rows, idempotency_key);
    };
  } else if (command == "metrics" && extra == 0) {
    request = [](svc::Client& client) { return client.metrics(); };
  } else if (command == "ct-sth" && extra == 0) {
    request = [](svc::Client& client) { return client.ct_sth(); };
  } else if (command == "ct-prove" && (extra == 1 || extra == 2)) {
    request = [fingerprint = argv[arg + 1],
               log_id = extra == 2 ? argv[arg + 2] : ""](svc::Client& client) {
      return client.ct_prove_inclusion(fingerprint, log_id);
    };
  } else if (command == "ct-status" && extra == 0) {
    request = [](svc::Client& client) { return client.ct_monitor_status(); };
  } else if (command == "fleet-status" && extra == 0) {
    request = [](svc::Client& client) { return client.fleet_status(); };
  } else if (command == "epoch-delta" && extra <= 1) {
    std::optional<std::size_t> epoch;
    if (extra == 1) {
      epoch = util::parse_count<std::size_t>(argv[arg + 1]);
      if (!epoch) {
        print_usage(argv[0]);
        return 2;
      }
    }
    request = [epoch](svc::Client& client) { return client.epoch_delta(epoch); };
  } else if (command == "shutdown" && extra == 0) {
    request = [](svc::Client& client) { return client.shutdown(); };
  } else {
    print_usage(argv[0]);
    return 2;
  }

  svc::Client client;
  client.set_timeout_ms(timeout_ms);
  if (retries > 0) {
    svc::RetryOptions retry;
    retry.max_attempts = std::size_t{retries} + 1;
    client.set_retry(retry);
  }
  std::string error;
  if (!client.connect(host, port, &error)) {
    std::fprintf(stderr, "certchain-query: %s\n", error.c_str());
    return 3;
  }
  return render_response(request(client), command == "report");
}
