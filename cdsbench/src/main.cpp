/// \file main.cpp
/// cdsbench: runs one named workload against the cdsflow library and prints
/// one JSON result line.
///
/// Usage: cdsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 [--commit <id>]
///
/// Output: a metadata JSON line (host, build, commit, seed), human-readable
/// notes, and as the last line {"correct", "attempted", "failed",
/// "metrics"}. Exit code 0 when every output passed its correctness gate,
/// 1 on a mismatch, 2 on a usage error or an exception.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include <cpuid.h>

#include "cds/vector_kernel.hpp"
#include "harness.hpp"

namespace {

using namespace cdsbench;

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
  brand = brand.c_str();  // drop the NUL padding
  const auto first = brand.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : brand.substr(first);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

int usage(const char* message) {
  std::cerr << "cdsbench: " << message
            << "\nusage: cdsbench --workload <book-batch|quote-stream|"
               "scenario-sweep> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--commit") {
      options.commit = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    return usage("--seconds must lie in (0, 120]");
  }

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "book-batch") run = run_book_batch;
  if (options.workload == "quote-stream") run = run_quote_stream;
  if (options.workload == "scenario-sweep") run = run_scenario_sweep;
  if (run == nullptr) return usage("unknown --workload");

  std::cout << "{\"meta\": {\"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"cpu\": \"" << json_escape(cpu_model())
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"simd\": \""
            << cdsflow::cds::simd::to_string(
                   cdsflow::cds::simd::active_level())
            << "\", \"compiler\": \"" << CDSBENCH_COMPILER
            << "\", \"build_type\": \"" << CDSBENCH_BUILD_TYPE
            << "\", \"commit\": \"" << json_escape(options.commit)
            << "\"}}\n";

  Result result;
  try {
    result = run(options);
  } catch (const std::exception& error) {
    std::cerr << "cdsbench: " << options.workload << " failed: "
              << error.what() << '\n';
    return 2;
  }

  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& metric : result.metrics) {
    std::cout << sep << '"' << metric.name << "\": {\"value\": "
              << number(metric.value) << ", \"unit\": \"" << metric.unit
              << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
