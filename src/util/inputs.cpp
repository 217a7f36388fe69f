#include "util/inputs.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/format.hpp"

namespace amrio::util {

InputsFile InputsFile::from_string(const std::string& text) {
  InputsFile f;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line = line.substr(0, hash);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("inputs line " + std::to_string(lineno) +
                                  ": expected 'key = value', got '" + stripped +
                                  "'");
    const std::string key = trim(stripped.substr(0, eq));
    if (key.empty())
      throw std::invalid_argument("inputs line " + std::to_string(lineno) +
                                  ": empty key");
    // Empty values are allowed (the paper's Listing 2 has a bare
    // `amr.probin_file =` continuation); they parse to an empty token list.
    f.values_[key] = split_ws(stripped.substr(eq + 1));
  }
  return f;
}

InputsFile InputsFile::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("InputsFile: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_string(buf.str());
}

bool InputsFile::contains(const std::string& key) const {
  return values_.find(key) != values_.end();
}

const std::vector<std::string>& InputsFile::tokens(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end())
    throw std::out_of_range("inputs key not found: " + key);
  return it->second;
}

std::string InputsFile::get_string(const std::string& key) const {
  const auto& t = tokens(key);
  if (t.empty()) throw std::invalid_argument("inputs key has no value: " + key);
  return t.front();
}

std::string InputsFile::get_string_or(const std::string& key,
                                      const std::string& dflt) const {
  if (!contains(key)) return dflt;
  return get_string(key);
}

std::int64_t InputsFile::get_int(const std::string& key) const {
  try {
    return std::stoll(get_string(key));
  } catch (const std::out_of_range&) {
    throw;
  } catch (const std::exception&) {
    throw std::invalid_argument("inputs key " + key + ": not an integer");
  }
}

std::int64_t InputsFile::get_int_or(const std::string& key,
                                    std::int64_t dflt) const {
  if (!contains(key)) return dflt;
  return get_int(key);
}

double InputsFile::get_double(const std::string& key) const {
  try {
    return std::stod(get_string(key));
  } catch (const std::out_of_range&) {
    throw;
  } catch (const std::exception&) {
    throw std::invalid_argument("inputs key " + key + ": not a number");
  }
}

double InputsFile::get_double_or(const std::string& key, double dflt) const {
  if (!contains(key)) return dflt;
  return get_double(key);
}

std::vector<std::int64_t> InputsFile::get_int_list(const std::string& key) const {
  const auto& t = tokens(key);
  std::vector<std::int64_t> out;
  out.reserve(t.size());
  for (const auto& s : t) {
    try {
      out.push_back(std::stoll(s));
    } catch (const std::exception&) {
      throw std::invalid_argument("inputs key " + key + ": bad integer '" + s +
                                  "'");
    }
  }
  return out;
}

std::vector<double> InputsFile::get_double_list(const std::string& key) const {
  const auto& t = tokens(key);
  std::vector<double> out;
  out.reserve(t.size());
  for (const auto& s : t) {
    try {
      out.push_back(std::stod(s));
    } catch (const std::exception&) {
      throw std::invalid_argument("inputs key " + key + ": bad number '" + s +
                                  "'");
    }
  }
  return out;
}

void InputsFile::set(const std::string& key, const std::string& value) {
  values_[key] = split_ws(value);
}

void InputsFile::set(const std::string& key, std::int64_t value) {
  values_[key] = {std::to_string(value)};
}

void InputsFile::set(const std::string& key, double value) {
  values_[key] = {format_g(value, 17)};
}

void InputsFile::set_list(const std::string& key,
                          const std::vector<std::int64_t>& values) {
  std::vector<std::string> toks;
  toks.reserve(values.size());
  for (auto v : values) toks.push_back(std::to_string(v));
  values_[key] = std::move(toks);
}

std::string InputsFile::to_string() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) {
    os << k << " = " << join(v, " ") << '\n';
  }
  return os.str();
}

}  // namespace amrio::util
