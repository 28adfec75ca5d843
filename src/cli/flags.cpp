#include "cli/flags.hpp"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace rls::cli {

std::uint64_t parse_uint(const std::string& what, const std::string& text,
                         std::uint64_t max) {
  // strtoull is too permissive here: it skips leading whitespace, accepts a
  // sign (wrapping "-5" to 2^64-5), and honors locale quirks. Digits only.
  if (text.empty()) {
    throw FlagError(what + " expects an unsigned integer, got ''");
  }
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw FlagError(what + " expects an unsigned integer, got '" + text +
                      "'");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max || v > (max - digit) / 10) {
      throw FlagError(what + " value out of range: '" + text +
                      "' (expects 0.." + std::to_string(max) + ")");
    }
    v = v * 10 + digit;
  }
  return v;
}

namespace {

void assign(const std::string& flag, const std::string& text, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  // strtod skips leading whitespace; a padded value is a quoting mistake.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front())) ||
      *end != '\0' || errno == ERANGE) {
    throw FlagError(flag + " expects a number, got '" + text + "'");
  }
  *out = v;
}

void assign(const std::string& flag, const std::string& text, bool* out) {
  if (text == "1" || text == "true") {
    *out = true;
  } else if (text == "0" || text == "false") {
    *out = false;
  } else {
    throw FlagError(flag + " expects 0/1/true/false, got '" + text + "'");
  }
}

}  // namespace

void FlagParser::add_bool(std::string name, bool* out, std::string help) {
  specs_.push_back({std::move(name), true, std::move(help),
                    [out](const std::string& flag, const std::string& text) {
                      assign(flag, text, out);
                    }});
}

void FlagParser::add_double(std::string name, double* out, std::string help) {
  specs_.push_back({std::move(name), false, std::move(help),
                    [out](const std::string& flag, const std::string& text) {
                      assign(flag, text, out);
                    }});
}

void FlagParser::add_string(std::string name, std::string* out,
                            std::string help) {
  specs_.push_back({std::move(name), false, std::move(help),
                    [out](const std::string&, const std::string& text) {
                      *out = text;
                    }});
}

const FlagParser::Spec* FlagParser::find(std::string_view name) const {
  for (const Spec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> FlagParser::parse(int argc, const char* const* argv,
                                           int begin) const {
  std::vector<std::string> positional;
  bool flags_done = false;
  for (int i = begin; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags_done || arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      if (!flags_done && arg == "--") {
        flags_done = true;
        continue;
      }
      positional.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    const Spec* spec = find(name);
    if (!spec) throw FlagError("unknown flag: " + arg);
    std::string value = "1";  // a bare boolean switch
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (!spec->is_bool) {
      // Valued flag without "=": consume the next argument.
      if (i + 1 >= argc) throw FlagError("--" + name + " needs a value");
      value = argv[++i];
    }
    spec->set("--" + name, value);
  }
  return positional;
}

std::string FlagParser::help() const {
  std::string out;
  for (const Spec& s : specs_) {
    out += "  --" + s.name;
    if (!s.is_bool) out += "=<v>";
    if (!s.help.empty()) {
      out += "  ";
      out += s.help;
    }
    out += '\n';
  }
  return out;
}

}  // namespace rls::cli
