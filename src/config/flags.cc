#include "config/flags.h"

#include <cstdlib>
#include <cstring>

namespace ccsim::config {
namespace {

Status ParseSpike(const std::string& value, FaultParams* fault) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("--spike wants P:MS");
  }
  fault->delay_spike_probability = std::atof(value.substr(0, colon).c_str());
  fault->delay_spike_ms = std::atof(value.substr(colon + 1).c_str());
  return Status::OK();
}

Status ParseCrash(const std::string& value, FaultParams* fault) {
  const std::size_t c1 = value.find(':');
  const std::size_t c2 =
      c1 == std::string::npos ? std::string::npos : value.find(':', c1 + 1);
  if (c2 == std::string::npos) {
    return Status::InvalidArgument("--crash wants NODE:AT:DOWN");
  }
  FaultParams::CrashEvent crash;
  crash.node = std::atoi(value.substr(0, c1).c_str());
  crash.at_s = std::atof(value.substr(c1 + 1, c2 - c1 - 1).c_str());
  crash.downtime_s = std::atof(value.substr(c2 + 1).c_str());
  fault->crashes.push_back(crash);
  return Status::OK();
}

Status ParsePartition(const std::string& value, FaultParams* fault) {
  const std::size_t c1 = value.find(':');
  const std::size_t c2 =
      c1 == std::string::npos ? std::string::npos : value.find(':', c1 + 1);
  if (c2 == std::string::npos) {
    return Status::InvalidArgument(
        "--partition wants NODE:AT:DUR[:DIR][:hard]");
  }
  const std::size_t c3 = value.find(':', c2 + 1);
  FaultParams::PartitionEvent part;
  part.node = std::atoi(value.substr(0, c1).c_str());
  part.at_s = std::atof(value.substr(c1 + 1, c2 - c1 - 1).c_str());
  part.duration_s = std::atof(value.substr(c2 + 1, c3 - c2 - 1).c_str());
  for (std::size_t pos = c3; pos != std::string::npos;) {
    const std::size_t next = value.find(':', pos + 1);
    const std::string token = value.substr(
        pos + 1,
        next == std::string::npos ? std::string::npos : next - pos - 1);
    if (token == "both") {
      part.direction = 0;
    } else if (token == "in") {
      part.direction = 1;
    } else if (token == "out") {
      part.direction = 2;
    } else if (token == "hard") {
      part.hard = true;
    } else {
      return Status::InvalidArgument(
          "--partition DIR wants both|in|out (optionally followed by "
          ":hard)");
    }
    pos = next;
  }
  fault->partitions.push_back(part);
  return Status::OK();
}

}  // namespace

const AlgorithmChoice kAlgorithmChoices[7] = {
    {"2pl", Algorithm::kTwoPhaseLocking, CachingMode::kInterTransaction},
    {"2pl-intra", Algorithm::kTwoPhaseLocking,
     CachingMode::kIntraTransaction},
    {"cert", Algorithm::kCertification, CachingMode::kInterTransaction},
    {"cert-intra", Algorithm::kCertification,
     CachingMode::kIntraTransaction},
    {"callback", Algorithm::kCallbackLocking,
     CachingMode::kInterTransaction},
    {"no-wait", Algorithm::kNoWaitLocking, CachingMode::kInterTransaction},
    {"no-wait-notify", Algorithm::kNoWaitNotify,
     CachingMode::kInterTransaction},
};

Status SelectAlgorithm(const std::string& name, AlgorithmParams* params) {
  for (const AlgorithmChoice& choice : kAlgorithmChoices) {
    if (name == choice.name) {
      params->algorithm = choice.algorithm;
      params->caching = choice.caching;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown algorithm '" + name + "'");
}

bool ParseValue(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  *value = arg + len + 1;
  return true;
}

bool ParseNumberFlag(const char* arg, std::span<const NumberFlag> flags) {
  std::string value;
  for (const NumberFlag& flag : flags) {
    if (!ParseValue(arg, flag.name, &value)) {
      continue;
    }
    if (double* const* real = std::get_if<double*>(&flag.field)) {
      **real = std::atof(value.c_str());
    } else if (int* const* integer = std::get_if<int*>(&flag.field)) {
      **integer = std::atoi(value.c_str());
    } else {
      *std::get<std::uint64_t*>(flag.field) =
          std::strtoull(value.c_str(), nullptr, 10);
    }
    return true;
  }
  return false;
}

bool ParseFaultFlag(const char* arg, FaultParams* fault, Status* status) {
  std::string value;
  if (ParseValue(arg, "--spike", &value)) {
    *status = ParseSpike(value, fault);
  } else if (ParseValue(arg, "--crash", &value)) {
    *status = ParseCrash(value, fault);
  } else if (ParseValue(arg, "--partition", &value)) {
    *status = ParsePartition(value, fault);
  } else {
    return false;
  }
  return true;
}

}  // namespace ccsim::config
