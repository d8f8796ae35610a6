#include "service/wire.h"

#include <cctype>

#include "runtime/metrics.h"
#include "util/error.h"

namespace qc::service {

namespace {

/// Hand-rolled parser for the one JSON shape the wire allows: a flat
/// object of string/uint members. Strict on purpose — unknown keys,
/// nesting, floats, and negative numbers are request bugs, and a typo
/// that silently defaulted an operand would corrupt results quietly.
struct Cursor {
  std::string_view s;
  std::size_t i = 0;
  std::uint64_t id = 0;  ///< the request's id once read, for the reply

  [[noreturn]] void fail(const std::string& what) const {
    throw RequestError(
        "bad request JSON at byte " + std::to_string(i) + ": " + what, id);
  }
  bool done() const { return i >= s.size(); }
  char peek() const { return done() ? '\0' : s[i]; }
  void skip_ws() {
    while (!done() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' ||
                       s[i] == '\n')) {
      ++i;
    }
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i;
  }
  bool eat(char c) {
    if (peek() != c) return false;
    ++i;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (!done() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\') {
        if (done()) fail("unterminated escape");
        const char e = s[i++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default:
            fail(std::string("unsupported escape '\\") + e + "'");
        }
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  std::uint64_t parse_uint() {
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("expected an unsigned integer");
    }
    std::uint64_t v = 0;
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      const std::uint64_t digit = static_cast<std::uint64_t>(s[i] - '0');
      if (v > (UINT64_MAX - digit) / 10) fail("integer overflow");
      v = v * 10 + digit;
      ++i;
    }
    if (peek() == '.' || peek() == 'e' || peek() == 'E') {
      fail("integers only (no floats)");
    }
    return v;
  }

  NodeId parse_node() {
    const std::uint64_t v = parse_uint();
    if (v > UINT32_MAX) fail("node id exceeds 32 bits");
    return static_cast<NodeId>(v);
  }
};

/// One Dist for output: raw integer, or "inf" for the saturated
/// sentinel (kInfDist and anything the saturating arithmetic pushed
/// above it) — printing the 2^62 sentinel as a number would invite
/// clients to do arithmetic on it.
std::string dist_json(Dist d) {
  return d >= kInfDist ? std::string("\"inf\"") : std::to_string(d);
}

}  // namespace

Query parse_request(std::string_view line) {
  Cursor c{line};
  c.skip_ws();
  c.expect('{');
  Query q;
  c.skip_ws();
  if (!c.eat('}')) {
    for (;;) {
      c.skip_ws();
      const std::string key = c.parse_string();
      c.skip_ws();
      c.expect(':');
      c.skip_ws();
      if (key == "id") {
        q.id = c.id = c.parse_uint();
      } else if (key == "graph") {
        q.graph = c.parse_string();
      } else if (key == "type") {
        q.type = c.parse_string();
      } else if (key == "node" || key == "source" || key == "u") {
        q.node = c.parse_node();
      } else if (key == "target" || key == "v") {
        q.target = c.parse_node();
      } else if (key == "seed") {
        q.seed = c.parse_uint();
      } else if (key == "op") {
        q.op = c.parse_string();
      } else if (key == "weight" || key == "w") {
        q.weight = c.parse_uint();
      } else {
        c.fail("unknown request key \"" + key + "\"");
      }
      c.skip_ws();
      if (c.eat(',')) continue;
      c.expect('}');
      break;
    }
  }
  c.skip_ws();
  if (!c.done()) c.fail("trailing bytes after the request object");
  if (q.type.empty()) {
    throw RequestError("request needs a non-empty \"type\"", q.id);
  }
  return q;
}

std::string format_response(const QueryResult& r) {
  std::string out = "{\"id\":" + std::to_string(r.id) +
                    ",\"ok\":" + (r.ok ? "true" : "false");
  if (!r.type.empty()) out += ",\"type\":" + runtime::json_string(r.type);
  if (!r.ok) {
    out += ",\"error\":" + runtime::json_string(r.error) + "}";
    return out;
  }
  out += ",\"value\":" + dist_json(r.value);
  if (r.scale != 1) {
    out += ",\"scale\":" + std::to_string(r.scale);
    if (r.value < kInfDist) {
      out += ",\"approx\":" +
             runtime::json_number(static_cast<double>(r.value) /
                                  static_cast<double>(r.scale));
    }
  }
  if (!r.dist.empty()) {
    out += ",\"dist\":[";
    for (std::size_t i = 0; i < r.dist.size(); ++i) {
      if (i != 0) out += ',';
      out += dist_json(r.dist[i]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string format_rejection(std::uint64_t id, std::string_view reason) {
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":false,\"code\":\"rejected\",\"error\":" +
         runtime::json_string(std::string(reason)) + "}";
}

}  // namespace qc::service
