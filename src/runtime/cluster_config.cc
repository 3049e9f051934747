#include "runtime/cluster_config.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>

namespace mrp::runtime {
namespace {

// Upper bound on ring ids and on member and spare counts.
constexpr std::uint64_t kMaxCount = 4096;

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') break;
    out.push_back(tok);
  }
  return out;
}

// A whole token holding an unsigned integer in [lo, hi].
template <typename T>
bool ParseUint(const std::string& tok, std::uint64_t lo, std::uint64_t hi,
               T* out) {
  std::uint64_t v = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return false;
  *out = static_cast<T>(v);
  return true;
}

// A whole token holding a finite, non-negative rate.
bool ParseRate(const std::string& tok, double* out) {
  double v = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

std::optional<ClusterConfig> ClusterConfig::Load(const std::string& path,
                                                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str(), error);
}

std::optional<ClusterConfig> ClusterConfig::Parse(const std::string& text,
                                                  std::string* error) {
  ClusterConfig cfg;
  auto& spec = cfg.spec;
  spec.n_rings = 0;
  spec.lambda_per_sec = 0;  // a ring without `lambda`: no skips
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    if (error) *error = "line " + std::to_string(lineno) + ": " + why;
    return std::nullopt;
  };
  auto bad = [&](const std::string& what, const std::string& tok) {
    return fail("bad " + what + " '" + tok + "'");
  };
  // Index of a ring declared above.
  auto ring_ref = [&](const std::string& tok, int* out) {
    return ParseUint(tok, 0, kMaxCount, out) && *out < spec.n_rings;
  };

  while (std::getline(in, line)) {
    ++lineno;
    const auto tok = Tokenize(line);
    if (tok.empty()) continue;
    // Options come in `name value` pairs from token `first` on.
    auto pairs_from = [&](std::size_t first) {
      return tok.size() >= first && (tok.size() - first) % 2 == 0;
    };

    if (tok[0] == "ring") {
      if (!pairs_from(4) || tok[2] != "members") return fail("ring syntax");
      int r = 0;
      if (!ParseUint(tok[1], 0, kMaxCount, &r) || r != spec.n_rings) {
        return fail("expected ring " + std::to_string(spec.n_rings) +
                    ", got '" + tok[1] + "' (rings are numbered in order)");
      }
      int members = 0;
      int spares = 0;
      double lambda = 0;
      if (!ParseUint(tok[3], 1, kMaxCount, &members)) {
        return bad("member count", tok[3]);
      }
      for (std::size_t i = 4; i < tok.size(); i += 2) {
        const std::string& v = tok[i + 1];
        if (tok[i] == "spares") {
          if (!ParseUint(v, 0, kMaxCount, &spares)) return bad("spares", v);
        } else if (tok[i] == "lambda") {
          if (!ParseRate(v, &lambda)) return bad("lambda", v);
        } else {
          return fail("unknown ring option " + tok[i]);
        }
      }
      if (r == 0) {
        spec.ring_size = members;
        spec.n_spares = spares;
      } else if (members != spec.ring_size || spares != spec.n_spares) {
        return fail("ring " + tok[1] +
                    " has a different member or spare count from ring 0");
      }
      spec.ring_lambda.push_back(lambda);
      ++spec.n_rings;
    } else if (tok[0] == "node" && tok.size() >= 3 && tok[1] == "learner") {
      LearnerRole lr;
      std::istringstream csv(tok[2]);
      for (std::string part; std::getline(csv, part, ',');) {
        if (!ring_ref(part, &lr.rings.emplace_back())) {
          return fail("unknown ring '" + part + "'");
        }
      }
      if (lr.rings.empty()) return fail("learner needs ring ids");
      for (std::size_t i = 3; i < tok.size(); ++i) {
        if (tok[i] != "acks") return fail("unknown learner option " + tok[i]);
        lr.acks = true;
      }
      cfg.roles.emplace_back(std::move(lr));
    } else if (tok[0] == "node" && tok.size() >= 3 && tok[1] == "proposer") {
      ProposerRole pr;
      if (!ring_ref(tok[2], &pr.ring)) {
        return fail("unknown ring '" + tok[2] + "'");
      }
      if (!pairs_from(3)) return fail("proposer syntax");
      for (std::size_t i = 3; i < tok.size(); i += 2) {
        const std::string& v = tok[i + 1];
        if (tok[i] == "rate") {
          if (!ParseRate(v, &pr.rate)) return bad("rate", v);
        } else if (tok[i] == "window") {
          if (!ParseUint(v, 1, 1'000'000, &pr.window)) return bad("window", v);
        } else if (tok[i] == "size") {
          if (!ParseUint(v, 0, UINT32_MAX, &pr.payload)) return bad("size", v);
        } else {
          return fail("unknown proposer option " + tok[i]);
        }
      }
      cfg.roles.emplace_back(pr);
    } else if (tok[0] == "node") {
      return fail("node syntax: node learner|proposer <rings> ...");
    } else if (tok[0] == "udp") {
      if (!pairs_from(1)) return fail("udp syntax");
      for (std::size_t i = 1; i < tok.size(); i += 2) {
        const std::string& v = tok[i + 1];
        if (tok[i] == "base_port") {
          if (!ParseUint(v, 1, 65535, &cfg.udp.base_port)) {
            return bad("base_port", v);
          }
        } else if (tok[i] == "mcast_prefix") {
          cfg.udp.mcast_prefix = v;
        } else if (tok[i] == "mcast_port") {
          if (!ParseUint(v, 1, 65535, &cfg.udp.mcast_port_base)) {
            return bad("mcast_port", v);
          }
        } else if (tok[i] == "iface") {
          cfg.udp.bind_ip = v;
          cfg.udp.mcast_if = v;
        } else {
          return fail("unknown udp option " + tok[i]);
        }
      }
    } else {
      return fail("unknown directive " + tok[0]);
    }
  }

  // Node n listens on base_port + n, channel c on mcast_port + c.
  const std::size_t nodes = spec.ring_node_count() + cfg.roles.size();
  const std::size_t channels = 2 * static_cast<std::size_t>(spec.n_rings);
  std::string why;
  if (spec.n_rings == 0) {
    why = "no ring declared";
  } else if (cfg.udp.base_port + nodes > 65536 ||
             cfg.udp.mcast_port_base + channels > 65536) {
    why = "udp ports run past 65535 for this many nodes or rings";
  }
  if (why.empty()) return cfg;
  if (error) *error = why;
  return std::nullopt;
}

}  // namespace mrp::runtime
