#include "util/cli.hpp"

#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace amrio::util {

double parse_double(const std::string& flag, const std::string& token) {
  double v = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v))
    throw std::invalid_argument("--" + flag +
                                ": expected a finite number, got '" + token +
                                "'");
  return v;
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           int nvalues, std::optional<std::string> default_value) {
  AMRIO_EXPECTS(nvalues >= 1);
  AMRIO_EXPECTS_MSG(options_.find(name) == options_.end(),
                    "duplicate option --" << name);
  Option opt;
  opt.help = help;
  opt.nvalues = nvalues;
  opt.default_value = std::move(default_value);
  options_[name] = std::move(opt);
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  AMRIO_EXPECTS_MSG(options_.find(name) == options_.end(),
                    "duplicate flag --" << name);
  Option opt;
  opt.help = help;
  opt.nvalues = 0;
  opt.is_flag = true;
  options_[name] = std::move(opt);
  order_.push_back(name);
}

void ArgParser::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

void ArgParser::parse(const std::vector<std::string>& args) {
  std::size_t i = 0;
  while (i < args.size()) {
    const std::string& arg = args[i];
    if (!arg.starts_with("--")) {
      positional_.push_back(arg);
      ++i;
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = options_.find(name);
    if (it == options_.end())
      throw std::invalid_argument("unknown option --" + name + " (see --help)");
    Option& opt = it->second;
    opt.seen = true;
    opt.values.clear();
    ++i;
    if (opt.is_flag) {
      if (inline_value)
        throw std::invalid_argument("flag --" + name + " takes no value");
      continue;
    }
    if (inline_value) opt.values.push_back(*inline_value);
    while (opt.values.size() < static_cast<std::size_t>(opt.nvalues)) {
      if (i >= args.size())
        throw std::invalid_argument("missing value for --" + name);
      opt.values.push_back(args[i++]);
    }
  }
}

const ArgParser::Option& ArgParser::find(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end())
    throw std::invalid_argument("option --" + name + " was never declared");
  return it->second;
}

bool ArgParser::has(const std::string& name) const {
  const Option& opt = find(name);
  return opt.seen || opt.default_value.has_value();
}

std::string ArgParser::get(const std::string& name) const {
  const Option& opt = find(name);
  if (opt.seen) return opt.values.at(0);
  if (opt.default_value) return *opt.default_value;
  throw std::invalid_argument("required option --" + name + " not given");
}

std::vector<std::string> ArgParser::get_all(const std::string& name) const {
  const Option& opt = find(name);
  if (opt.seen) return opt.values;
  if (opt.default_value) return {*opt.default_value};
  return {};
}

bool ArgParser::flag(const std::string& name) const { return find(name).seen; }

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [options]\n" << description_ << "\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    if (!opt.is_flag) {
      for (int k = 0; k < opt.nvalues; ++k) os << " <v" << (k + 1) << ">";
    }
    os << "  " << opt.help;
    if (opt.default_value) os << " (default: " << *opt.default_value << ")";
    os << '\n';
  }
  return os.str();
}

}  // namespace amrio::util
