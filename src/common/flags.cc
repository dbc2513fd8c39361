#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/expect.h"
#include "common/spec.h"

namespace smartred::flags {
namespace {

bool parse_bool_text(const std::string& text, bool& out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

Parser::Parser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

std::shared_ptr<std::int64_t> Parser::add_int(std::string name,
                                              std::int64_t default_value,
                                              std::string help) {
  SMARTRED_EXPECT(find(name) == nullptr, "duplicate flag name");
  auto value = std::make_shared<std::int64_t>(default_value);
  all_.push_back(Flag{std::move(name), std::move(help), Kind::kInt, value,
                      nullptr, nullptr, nullptr,
                      std::to_string(default_value)});
  return value;
}

std::shared_ptr<double> Parser::add_double(std::string name,
                                           double default_value,
                                           std::string help) {
  SMARTRED_EXPECT(find(name) == nullptr, "duplicate flag name");
  auto value = std::make_shared<double>(default_value);
  std::ostringstream text;
  text << default_value;
  all_.push_back(Flag{std::move(name), std::move(help), Kind::kDouble, nullptr,
                      value, nullptr, nullptr, text.str()});
  return value;
}

std::shared_ptr<std::string> Parser::add_string(std::string name,
                                                std::string default_value,
                                                std::string help) {
  SMARTRED_EXPECT(find(name) == nullptr, "duplicate flag name");
  auto value = std::make_shared<std::string>(default_value);
  all_.push_back(Flag{std::move(name), std::move(help), Kind::kString, nullptr,
                      nullptr, value, nullptr, std::move(default_value)});
  return value;
}

std::shared_ptr<bool> Parser::add_bool(std::string name, bool default_value,
                                       std::string help) {
  SMARTRED_EXPECT(find(name) == nullptr, "duplicate flag name");
  auto value = std::make_shared<bool>(default_value);
  all_.push_back(Flag{std::move(name), std::move(help), Kind::kBool, nullptr,
                      nullptr, nullptr, value,
                      default_value ? "true" : "false"});
  return value;
}

std::string Parser::suggest(const std::string& name) const {
  // Only near-misses make useful suggestions: within 2 edits, or within a
  // third of the typed length for longer names. Ties go to the flag
  // registered first (stable, and registration order puts the common
  // experiment flags up front).
  const std::size_t cutoff = std::max<std::size_t>(2, name.size() / 3);
  std::size_t best = cutoff + 1;
  std::string nearest;
  for (const Flag& flag : all_) {
    const std::size_t distance = spec::edit_distance(name, flag.name);
    if (distance < best) {
      best = distance;
      nearest = flag.name;
    }
  }
  return nearest;
}

const Parser::Flag* Parser::find(const std::string& name) const {
  for (const Flag& flag : all_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

void Parser::assign(const Flag& flag, const std::string& text) const {
  switch (flag.kind) {
    case Kind::kInt: {
      std::int64_t parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), parsed);
      if (ec != std::errc{} || ptr != text.data() + text.size()) {
        throw ParseError("flag --" + flag.name + ": '" + text +
                         "' is not an integer");
      }
      *flag.int_value = parsed;
      return;
    }
    case Kind::kDouble: {
      char* end = nullptr;
      const double parsed = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size() || text.empty()) {
        throw ParseError("flag --" + flag.name + ": '" + text +
                         "' is not a number");
      }
      *flag.double_value = parsed;
      return;
    }
    case Kind::kString:
      *flag.string_value = text;
      return;
    case Kind::kBool: {
      bool parsed = false;
      if (!parse_bool_text(text, parsed)) {
        throw ParseError("flag --" + flag.name + ": '" + text +
                         "' is not a boolean");
      }
      *flag.bool_value = parsed;
      return;
    }
  }
}

void Parser::parse(int argc, const char* const* argv) const {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      throw ParseError("unexpected positional argument '" + arg + "'");
    }
    arg.erase(0, 2);
    std::string value_text;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value_text = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    const Flag* flag = find(arg);
    if (flag == nullptr) {
      std::string message = "unknown flag --" + arg;
      if (const std::string nearest = suggest(arg); !nearest.empty()) {
        message += " (did you mean --" + nearest + "?)";
      }
      throw ParseError(message + "\n" + usage());
    }
    if (!has_value) {
      if (flag->kind == Kind::kBool) {
        *flag->bool_value = true;  // bare --flag turns a boolean on
        continue;
      }
      if (i + 1 >= argc) {
        throw ParseError("flag --" + arg + " expects a value");
      }
      value_text = argv[++i];
    }
    assign(*flag, value_text);
  }
}

std::string Parser::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const Flag& flag : all_) {
    out << "  --" << flag.name << "  (default: " << flag.default_text << ")\n"
        << "      " << flag.help << "\n";
  }
  return out.str();
}

}  // namespace smartred::flags
