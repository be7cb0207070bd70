#include "util/args.h"

#include "util/check.h"

namespace kcore::util {

Args::Args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  tokens.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  parse(tokens);
}

Args::Args(std::vector<std::string> tokens) { parse(tokens); }

void Args::parse(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.rfind("--", 0) != 0) {
      positional_.push_back(tok);
      continue;
    }
    const std::string body = tok.substr(2);
    KCORE_CHECK_MSG(!body.empty() && body[0] != '=',
                    "malformed option '" << tok << "'");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token is not itself an option;
    // otherwise a bare flag.
    if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      options_[body] = tokens[i + 1];
      ++i;
    } else {
      options_[body] = std::nullopt;
    }
  }
}

bool Args::has(const std::string& name) const {
  queried_[name] = true;
  return options_.contains(name);
}

std::optional<std::string> Args::get(const std::string& name) const {
  queried_[name] = true;
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  KCORE_CHECK_MSG(it->second.has_value(),
                  "option --" << name << " needs a value");
  return it->second;
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  const auto v = get(name);
  return v.value_or(fallback);
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const auto v = get(name);
  return v ? parse_int(name, *v) : fallback;
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(*v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  KCORE_CHECK_MSG(pos == v->size() && pos > 0,
                  "option --" << name << "='" << *v << "' is not a number");
  return value;
}

std::vector<std::string> Args::get_list(const std::string& name) const {
  std::vector<std::string> items;
  const auto v = get(name);
  if (!v) return items;
  std::size_t start = 0;
  while (start <= v->size()) {
    const auto comma = v->find(',', start);
    const auto end = comma == std::string::npos ? v->size() : comma;
    if (end > start) items.push_back(v->substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : options_) {
    if (!queried_.contains(name)) out.push_back(name);
  }
  return out;
}

std::int64_t parse_int(const std::string& name, const std::string& text) {
  std::size_t pos = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  KCORE_CHECK_MSG(pos == text.size() && pos > 0,
                  "option --" << name << "='" << text << "' is not an integer");
  return value;
}

}  // namespace kcore::util
