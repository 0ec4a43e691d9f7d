#include "protocheck.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace reconfnet::protocheck {

using textscan::Tok;
using textscan::bracket_is_close;
using textscan::bracket_is_open;
using textscan::cpp_keywords;
using textscan::match_bracket;
using textscan::skip_angles;
using textscan::starts_with;
using textscan::tok_is;
using textscan::tokenize;

// ---------------------------------------------------------------------------
// Rule catalogue

const std::vector<textscan::RuleInfo>& rules() {
  static const std::vector<textscan::RuleInfo> kRules = {
      {"RNP301", "Bus<T> binding with an undeclared message type"},
      {"RNP302", "spec message never sent anywhere (orphan)"},
      {"RNP303", "spec message never consumed via inbox() (orphan)"},
      {"RNP304", "send site in a file not listed as a sender"},
      {"RNP305", "inbox site in a file not listed as a receiver"},
      {"RNP306", "send-site bits expression not among the spec formulas"},
      {"RNP307", "payload member that cannot go on a wire"},
      {"RNP308", "send after the bus's final step"},
      {"RNP309", "pinned constant's token sequence missing"},
      {"RNP310", "payload struct not found in its declared file"},
      {"RNP390", "malformed reconfnet-protocheck suppression"},
  };
  return kRules;
}

namespace {

/// Canonical form of an expression: token texts joined by single spaces.
/// Both the spec strings and the code go through the same tokenizer, so
/// whitespace, line breaks and digit grouping compare equal.
std::string normalize_expr(const std::string& text) {
  const std::vector<Tok> toks = tokenize({text});
  std::string out;
  for (const Tok& tok : toks) {
    if (!out.empty()) out += ' ';
    out += tok.text;
  }
  return out;
}

std::string normalize_range(const std::vector<Tok>& toks, std::size_t begin,
                            std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (!out.empty()) out += ' ';
    out += toks[i].text;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec parsing

namespace {

bool fill_message(const textscan::TomlSection& section, MessageSpec& msg,
                  std::string& error) {
  msg.line = section.line;
  for (const auto& entry : section.entries) {
    const bool want_array = entry.key == "senders" ||
                            entry.key == "receivers" || entry.key == "bits";
    if (want_array != entry.is_array) {
      error = "line " + std::to_string(entry.line) + ": message key " +
              entry.key + (want_array ? " needs an array" : " needs a string");
      return false;
    }
    if (entry.key == "name") {
      msg.name = entry.scalar;
    } else if (entry.key == "file") {
      msg.file = entry.scalar;
    } else if (entry.key == "subsystem") {
      msg.subsystem = entry.scalar;
    } else if (entry.key == "senders") {
      msg.senders = entry.items;
    } else if (entry.key == "receivers") {
      msg.receivers = entry.items;
    } else if (entry.key == "bits") {
      msg.bits = entry.items;
    } else {
      error = "line " + std::to_string(entry.line) +
              ": unknown message key " + entry.key;
      return false;
    }
  }
  if (msg.name.empty() || msg.file.empty() || msg.subsystem.empty() ||
      msg.senders.empty() || msg.receivers.empty() || msg.bits.empty()) {
    error = "line " + std::to_string(section.line) +
            ": [[message]] needs name, file, subsystem, senders, receivers "
            "and bits";
    return false;
  }
  return true;
}

bool fill_constant(const textscan::TomlSection& section, ConstantSpec& constant,
                   std::string& error) {
  constant.line = section.line;
  for (const auto& entry : section.entries) {
    if (entry.is_array) {
      error = "line " + std::to_string(entry.line) + ": constant key " +
              entry.key + " needs a string";
      return false;
    }
    if (entry.key == "name") {
      constant.name = entry.scalar;
    } else if (entry.key == "file") {
      constant.file = entry.scalar;
    } else if (entry.key == "code") {
      constant.code = entry.scalar;
    } else if (entry.key == "note") {
      // Documentation only.
    } else {
      error = "line " + std::to_string(entry.line) +
              ": unknown constant key " + entry.key;
      return false;
    }
  }
  if (constant.name.empty() || constant.file.empty() ||
      constant.code.empty()) {
    error = "line " + std::to_string(section.line) +
            ": [[constant]] needs name, file and code";
    return false;
  }
  return true;
}

}  // namespace

bool parse_spec(const std::string& text, Spec& spec, std::string& error) {
  spec = Spec{};
  std::vector<textscan::TomlSection> sections;
  if (!textscan::parse_toml_subset(text, sections, error)) return false;
  for (const auto& section : sections) {
    if (section.is_array_of_tables && section.name == "message") {
      MessageSpec msg;
      if (!fill_message(section, msg, error)) return false;
      spec.messages.push_back(std::move(msg));
    } else if (section.is_array_of_tables && section.name == "constant") {
      ConstantSpec constant;
      if (!fill_constant(section, constant, error)) return false;
      spec.constants.push_back(std::move(constant));
    } else if (!section.is_array_of_tables && section.name == "options") {
      for (const auto& entry : section.entries) {
        if (entry.key == "roots" && entry.is_array) {
          spec.roots = entry.items;
        } else {
          error = "line " + std::to_string(entry.line) +
                  ": unknown option " + entry.key;
          return false;
        }
      }
    } else if (!section.is_array_of_tables && section.name == "allow") {
      for (const auto& entry : section.entries) {
        if (!entry.is_array) {
          error = "line " + std::to_string(entry.line) + ": bad allow array";
          return false;
        }
        spec.allow[entry.key] = entry.items;
      }
    } else {
      error = "line " + std::to_string(section.line) + ": unknown section " +
              section.name;
      return false;
    }
  }
  // Duplicate (name, file) message entries would make resolution ambiguous.
  std::set<std::pair<std::string, std::string>> seen;
  for (const MessageSpec& msg : spec.messages) {
    if (!seen.insert({msg.name, msg.file}).second) {
      error = "line " + std::to_string(msg.line) + ": duplicate message " +
              msg.name + " in " + msg.file;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Extraction

struct Driver::Extraction {
  struct StructDef {
    std::string file;
    std::size_t line = 0;
    std::size_t body_begin = 0;  // token index just past '{'
    std::size_t body_end = 0;    // token index of the matching '}'
  };

  struct SendSite {
    std::size_t line = 0;
    std::string bits;  // normalized; empty when the call did not parse
  };

  struct Event {
    enum class Kind { kSend, kStep } kind;
    std::size_t line = 0;
    std::size_t send_index = 0;  // into Binding::sends for kSend
  };

  struct Binding {
    std::string file;
    std::size_t line = 0;       // declaration line
    std::size_t decl_tok = 0;   // declaration token index
    std::string var;
    std::string msg;            // template argument's final identifier
    /// Non-empty when `msg` is a type parameter of the function template
    /// holding the binding: that function's name. Such a generic bus is
    /// bound to a message at each call `owner<Msg>(...)` instead.
    std::string generic_owner;
    std::vector<SendSite> sends;
    std::vector<std::size_t> inbox_lines;
    std::vector<Event> events;
  };

  /// struct name -> every definition site in the tree (payload structs are
  /// often file-local, and the same name may exist in several files).
  std::map<std::string, std::vector<StructDef>> structs;
  /// `using X = std::shared_ptr<...>`-style aliases that hide a pointer.
  std::set<std::string> pointer_aliases;
  std::map<std::string, std::vector<Tok>> tokens;  // per file
  std::vector<Binding> bindings;

  std::map<std::string, std::string> impurity_memo;

  void collect_global(const std::string& path);
  void collect_bindings_and_events(const std::string& path);

  /// Calls `sink(line, description)` for each wire-unsafe member of `def`;
  /// returns true if any member was flagged.
  template <typename Sink>
  bool scan_members(const StructDef& def, Sink&& sink,
                    std::set<std::string>& visiting);

  /// Non-empty description if any definition of struct `name` transitively
  /// holds a wire-unsafe member.
  std::string struct_impurity(const std::string& name,
                              std::set<std::string>& visiting);
};

void Driver::Extraction::collect_global(const std::string& path) {
  const std::vector<Tok>& toks = tokens.at(path);
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    // struct NAME { ... };  (skips forward declarations)
    if (toks[i].text == "struct" && toks[i + 1].kind == Tok::Kind::kIdent) {
      std::size_t j = i + 2;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";" &&
             toks[j].text != "(")
        ++j;
      if (j < toks.size() && toks[j].text == "{") {
        const std::size_t close = match_bracket(toks, j);
        if (close < toks.size()) {
          structs[toks[i + 1].text].push_back(
              {path, toks[i + 1].line, j + 1, close});
        }
      }
    }
    // using NAME = <something pointer-like>;
    if (toks[i].text == "using" && toks[i + 1].kind == Tok::Kind::kIdent &&
        tok_is(toks, i + 2, "=")) {
      for (std::size_t j = i + 3; j < toks.size() && toks[j].text != ";";
           ++j) {
        if (toks[j].text == "*" || toks[j].text == "shared_ptr" ||
            toks[j].text == "unique_ptr" || toks[j].text == "weak_ptr") {
          pointer_aliases.insert(toks[i + 1].text);
          break;
        }
      }
    }
  }
}

namespace {

/// The name of the function template whose body holds token `at` and whose
/// template parameter list declares the type `param`; empty if the nearest
/// template header before `at` is not such a function's.
std::string template_owner(const std::vector<Tok>& toks, std::size_t at,
                           const std::string& param) {
  for (std::size_t t = at; t-- > 0;) {
    if (toks[t].text != "template" || !tok_is(toks, t + 1, "<")) continue;
    const std::size_t past = skip_angles(toks, t + 1);
    bool declares = false;
    for (std::size_t j = t + 2; j + 1 < past; ++j) {
      declares |= (toks[j].text == "typename" || toks[j].text == "class") &&
                  toks[j + 1].text == param;
    }
    std::size_t open = past;
    while (open < toks.size() && toks[open].text != "(" &&
           toks[open].text != "{" && toks[open].text != ";")
      ++open;
    if (!declares || open >= toks.size() || toks[open].text != "(" ||
        toks[open - 1].kind != Tok::Kind::kIdent)
      return {};
    std::size_t body = match_bracket(toks, open);
    while (body < toks.size() && toks[body].text != "{" &&
           toks[body].text != ";")
      ++body;
    if (body >= toks.size() || toks[body].text != "{" ||
        match_bracket(toks, body) < at)
      return {};
    return toks[open - 1].text;
  }
  return {};
}

/// The normalized bits argument of send(from, to, payload, bits), with
/// `open` at its '('; empty when the call does not parse. The argument list
/// splits at top-level commas (brace/paren/bracket depth aware; template
/// arguments with commas would mis-split, but bits expressions do not
/// contain them).
std::string send_bits(const std::vector<Tok>& toks, std::size_t open) {
  const std::size_t close = match_bracket(toks, open);
  if (close >= toks.size()) return {};
  std::vector<std::pair<std::size_t, std::size_t>> args;
  std::size_t arg_begin = open + 1;
  int depth = 0;
  for (std::size_t j = open + 1; j < close; ++j) {
    if (bracket_is_open(toks[j].text)) ++depth;
    if (bracket_is_close(toks[j].text)) --depth;
    if (depth == 0 && toks[j].text == ",") {
      args.emplace_back(arg_begin, j);
      arg_begin = j + 1;
    }
  }
  args.emplace_back(arg_begin, close);
  if (args.size() != 4) return {};
  return normalize_range(toks, args[3].first, args[3].second);
}

}  // namespace

void Driver::Extraction::collect_bindings_and_events(const std::string& path) {
  const std::vector<Tok>& toks = tokens.at(path);

  // Pass 1: Bus<Msg> bindings. A re-declaration of the same variable name
  // (two functions in one file each owning a `bus`) closes the previous
  // binding: resolution below picks the binding with the largest declaration
  // index at or before each use.
  const std::size_t first_binding = bindings.size();
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "Bus" || !tok_is(toks, i + 1, "<")) continue;
    const std::size_t past = skip_angles(toks, i + 1);
    if (past >= toks.size() || toks[past].kind != Tok::Kind::kIdent ||
        cpp_keywords().count(toks[past].text) != 0)
      continue;
    std::string msg;
    for (std::size_t j = i + 2; j + 1 < past; ++j) {
      if (toks[j].kind == Tok::Kind::kIdent) msg = toks[j].text;
    }
    if (msg.empty()) continue;
    Binding binding;
    binding.file = path;
    binding.line = toks[past].line;
    binding.decl_tok = past;
    binding.var = toks[past].text;
    binding.msg = msg;
    binding.generic_owner = template_owner(toks, i, msg);
    bindings.push_back(std::move(binding));
  }

  std::set<std::string> vars;
  for (std::size_t b = first_binding; b < bindings.size(); ++b) {
    vars.insert(bindings[b].var);
  }
  if (vars.empty()) return;

  // Pass 2: step-alias lambdas — `auto step_bus = [&]() { ... bus.step(...) }`.
  // Their bodies are excluded from the linear event scan (the step happens
  // at the call sites, not the definition), and each call site counts as a
  // step event for the wrapped bus.
  struct StepAlias {
    std::string name;
    std::string var;  // the bus it steps
  };
  std::vector<StepAlias> aliases;
  std::vector<std::pair<std::size_t, std::size_t>> excluded;  // [begin, end]
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind != Tok::Kind::kIdent || !tok_is(toks, i + 1, "=") ||
        !tok_is(toks, i + 2, "["))
      continue;
    std::size_t j = match_bracket(toks, i + 2);  // capture list
    if (j >= toks.size()) continue;
    ++j;
    if (j < toks.size() && toks[j].text == "(") {
      j = match_bracket(toks, j);
      if (j >= toks.size()) continue;
      ++j;
    }
    while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") ++j;
    if (j >= toks.size() || toks[j].text != "{") continue;
    const std::size_t close = match_bracket(toks, j);
    if (close >= toks.size()) continue;
    for (std::size_t k = j + 1; k + 2 < close; ++k) {
      if (toks[k].kind == Tok::Kind::kIdent && vars.count(toks[k].text) != 0 &&
          toks[k + 1].text == "." && toks[k + 2].text == "step") {
        aliases.push_back({toks[i].text, toks[k].text});
        excluded.emplace_back(j, close);
        break;
      }
    }
  }

  const auto alias_of = [&](const std::string& name) -> const StepAlias* {
    for (const StepAlias& alias : aliases) {
      if (alias.name == name) return &alias;
    }
    return nullptr;
  };
  const auto binding_for = [&](const std::string& var,
                               std::size_t at) -> Binding* {
    Binding* best = nullptr;
    for (std::size_t b = first_binding; b < bindings.size(); ++b) {
      if (bindings[b].var == var && bindings[b].decl_tok <= at) {
        best = &bindings[b];
      }
    }
    return best;
  };

  // Pass 3: linear event scan.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    bool skip = false;
    for (const auto& [begin, end] : excluded) {
      if (i > begin && i < end) {
        i = end;
        skip = true;
        break;
      }
    }
    if (skip || toks[i].kind != Tok::Kind::kIdent) continue;
    if (const StepAlias* alias = alias_of(toks[i].text);
        alias != nullptr && tok_is(toks, i + 1, "(")) {
      if (Binding* binding = binding_for(alias->var, i)) {
        binding->events.push_back(
            {Event::Kind::kStep, toks[i].line, 0});
      }
      continue;
    }
    if (vars.count(toks[i].text) == 0 || !tok_is(toks, i + 1, ".") ||
        i + 3 >= toks.size() || toks[i + 3].text != "(")
      continue;
    Binding* binding = binding_for(toks[i].text, i);
    if (binding == nullptr) continue;
    const std::string& method = toks[i + 2].text;
    if (method == "inbox") {
      binding->inbox_lines.push_back(toks[i].line);
    } else if (method == "step") {
      binding->events.push_back({Event::Kind::kStep, toks[i].line, 0});
    } else if (method == "send") {
      SendSite site{toks[i].line, send_bits(toks, i + 3)};
      binding->events.push_back(
          {Event::Kind::kSend, site.line, binding->sends.size()});
      binding->sends.push_back(std::move(site));
    }
  }

  // Pass 4: calls `owner<Msg>(...)` of a function template that holds a
  // generic bus. Each call binds that bus to Msg: the send sites among the
  // call's arguments are Msg's sends, followed by the template's steps, and
  // the template's inbox reads consume Msg.
  const std::size_t own_end = bindings.size();
  for (std::size_t b = first_binding; b < own_end; ++b) {
    for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
      if (bindings[b].generic_owner.empty() ||
          toks[k].text != bindings[b].generic_owner ||
          !tok_is(toks, k + 1, "<"))
        continue;
      const std::size_t past = skip_angles(toks, k + 1);
      if (past >= toks.size() || toks[past].text != "(") continue;
      Binding call;
      call.file = path;
      call.line = toks[k].line;
      call.decl_tok = k;
      call.var = bindings[b].var;
      for (std::size_t j = k + 2; j + 1 < past && toks[j].text != ","; ++j) {
        if (toks[j].kind == Tok::Kind::kIdent) call.msg = toks[j].text;
      }
      const std::size_t close = match_bracket(toks, past);
      for (std::size_t j = past + 1; j + 3 < close; ++j) {
        if (toks[j].kind == Tok::Kind::kIdent && toks[j + 1].text == "." &&
            toks[j + 2].text == "send" && toks[j + 3].text == "(") {
          call.events.push_back(
              {Event::Kind::kSend, toks[j].line, call.sends.size()});
          call.sends.push_back({toks[j].line, send_bits(toks, j + 3)});
        }
      }
      for (const Event& event : bindings[b].events) {
        if (event.kind == Event::Kind::kStep) call.events.push_back(event);
      }
      call.inbox_lines = bindings[b].inbox_lines;
      if (!call.msg.empty()) bindings.push_back(std::move(call));
    }
  }
}

template <typename Sink>
bool Driver::Extraction::scan_members(const StructDef& def, Sink&& sink,
                                      std::set<std::string>& visiting) {
  static const std::set<std::string> kSkipStarters = {
      "enum",    "struct",  "class",    "using", "typedef",
      "static",  "friend",  "template", "public", "private",
      "protected"};
  static const std::set<std::string> kSmartPtrs = {"shared_ptr", "unique_ptr",
                                                   "weak_ptr"};
  const std::vector<Tok>& toks = tokens.at(def.file);
  bool any = false;
  std::size_t stmt_begin = def.body_begin;
  int depth = 0;
  for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
    if (bracket_is_open(toks[i].text)) ++depth;
    if (bracket_is_close(toks[i].text)) --depth;
    if (depth != 0 || toks[i].text != ";") continue;
    const std::size_t begin = stmt_begin;
    const std::size_t end = i;
    stmt_begin = i + 1;
    if (begin >= end) continue;
    if (kSkipStarters.count(toks[begin].text) != 0) continue;
    // Constructors and member functions: a '(' at depth 0 before any '='.
    bool is_function = false;
    int d = 0;
    for (std::size_t j = begin; j < end; ++j) {
      if (d == 0 && toks[j].text == "(") {
        is_function = true;
        break;
      }
      if (d == 0 && toks[j].text == "=") break;
      if (bracket_is_open(toks[j].text)) ++d;
      if (bracket_is_close(toks[j].text)) --d;
    }
    if (is_function) continue;
    std::string problem;
    for (std::size_t j = begin; j < end && problem.empty(); ++j) {
      const std::string& t = toks[j].text;
      if (t == "*") {
        problem = "raw pointer member";
      } else if (toks[j].kind != Tok::Kind::kIdent) {
        continue;
      } else if (kSmartPtrs.count(t) != 0) {
        problem = "std::" + t + " member";
      } else if (t == "float" || t == "double") {
        problem = "floating-point member (not exactly serializable)";
      } else if (starts_with(t, "unordered_")) {
        problem = "std::" + t + " member (bucket order)";
      } else if (pointer_aliases.count(t) != 0) {
        problem = "pointer-alias member ('" + t + "' hides a pointer)";
      }
    }
    if (problem.empty()) {
      // Recurse into member struct types by name.
      for (std::size_t j = begin; j < end && problem.empty(); ++j) {
        if (toks[j].kind != Tok::Kind::kIdent ||
            structs.count(toks[j].text) == 0)
          continue;
        const std::string nested = struct_impurity(toks[j].text, visiting);
        if (!nested.empty()) {
          problem = "member type '" + toks[j].text + "' has a " + nested;
        }
      }
    }
    if (!problem.empty()) {
      sink(toks[begin].line, problem);
      any = true;
    }
  }
  return any;
}

std::string Driver::Extraction::struct_impurity(
    const std::string& name, std::set<std::string>& visiting) {
  const auto memo = impurity_memo.find(name);
  if (memo != impurity_memo.end()) return memo->second;
  if (!visiting.insert(name).second) return {};  // cycle: assume pure
  std::string result;
  const auto it = structs.find(name);
  if (it != structs.end()) {
    for (const StructDef& def : it->second) {
      scan_members(
          def,
          [&](std::size_t, const std::string& description) {
            if (result.empty()) result = description;
          },
          visiting);
      if (!result.empty()) break;
    }
  }
  visiting.erase(name);
  impurity_memo[name] = result;
  return result;
}

// ---------------------------------------------------------------------------
// Driver

Driver::Driver(Spec spec, std::string spec_path)
    : spec_(std::move(spec)), spec_path_(std::move(spec_path)) {}

void Driver::add_file(const std::string& path, const std::string& content) {
  files_.emplace(path, strip_source(path, content));
}

void Driver::set_partial(bool partial) { partial_ = partial; }

bool Driver::allowed(const std::string& rule, const std::string& path) const {
  const auto it = spec_.allow.find(rule);
  if (it == spec_.allow.end()) return false;
  return textscan::matches_any_prefix(path, it->second);
}

Driver::Result Driver::run() {
  Result result;
  Extraction ex;
  for (const auto& [path, file] : files_) {
    ex.tokens.emplace(path, tokenize(file.code));
  }
  for (const auto& [path, file] : files_) ex.collect_global(path);
  for (const auto& [path, file] : files_) {
    ++result.files_checked;
    ex.collect_bindings_and_events(path);
  }

  std::vector<Finding> raw;

  // Spec lookup for a binding: prefer the entry whose declared file matches
  // where the payload struct is actually defined (payload structs are
  // file-local, and e.g. `WireMsg` exists in three files); fall back to a
  // unique entry by name (struct defined in a shared header).
  const auto resolve = [&](const Extraction::Binding& binding)
      -> const MessageSpec* {
    std::string defining_file;
    const auto defs = ex.structs.find(binding.msg);
    if (defs != ex.structs.end()) {
      for (const auto& def : defs->second) {
        if (def.file == binding.file) defining_file = def.file;
      }
      if (defining_file.empty() && defs->second.size() == 1) {
        defining_file = defs->second.front().file;
      }
    }
    const MessageSpec* by_name = nullptr;
    std::size_t name_matches = 0;
    for (const MessageSpec& msg : spec_.messages) {
      if (msg.name != binding.msg) continue;
      ++name_matches;
      by_name = &msg;
      if (!defining_file.empty() && msg.file == defining_file) return &msg;
    }
    return name_matches == 1 ? by_name : nullptr;
  };

  struct Usage {
    bool sent = false;
    bool consumed = false;
  };
  std::map<const MessageSpec*, Usage> usage;

  for (const Extraction::Binding& binding : ex.bindings) {
    const MessageSpec* spec = resolve(binding);
    if (!binding.generic_owner.empty()) {
      // Checked through the bindings of its owner's calls.
    } else if (spec == nullptr) {
      raw.push_back(
          {binding.file, binding.line, "RNP301",
           "message type '" + binding.msg +
               "' is not declared in the protocol spec (" + spec_path_ +
               "); every wire format needs a [[message]] entry"});
    } else {
      std::set<std::string> legal_bits;
      for (const std::string& expr : spec->bits) {
        legal_bits.insert(normalize_expr(expr));
      }
      for (const Extraction::SendSite& send : binding.sends) {
        usage[spec].sent = true;
        if (!textscan::matches_any_prefix(binding.file, spec->senders)) {
          raw.push_back({binding.file, send.line, "RNP304",
                         "send of '" + spec->name + "' from " + binding.file +
                             ", which the spec does not list as a sender"});
        }
        if (!send.bits.empty() && legal_bits.count(send.bits) == 0) {
          std::string expected;
          for (const std::string& expr : spec->bits) {
            if (!expected.empty()) expected += "  |  ";
            expected += expr;
          }
          raw.push_back(
              {binding.file, send.line, "RNP306",
               "bits expression `" + send.bits + "` for message '" +
                   spec->name +
                   "' does not match the spec (legal: " + expected + ")"});
        }
      }
      for (const std::size_t line : binding.inbox_lines) {
        usage[spec].consumed = true;
        if (!textscan::matches_any_prefix(binding.file, spec->receivers)) {
          raw.push_back({binding.file, line, "RNP305",
                         "inbox read of '" + spec->name + "' in " +
                             binding.file +
                             ", which the spec does not list as a receiver"});
        }
      }
    }
    // Phase order (receive -> compute -> send -> step): a send after the
    // binding's final step can never be delivered. Applies to unknown
    // message types too.
    std::size_t last_step = binding.events.size();
    for (std::size_t e = 0; e < binding.events.size(); ++e) {
      if (binding.events[e].kind == Extraction::Event::Kind::kStep) {
        last_step = e;
      }
    }
    for (std::size_t e = 0; e < binding.events.size(); ++e) {
      if (binding.events[e].kind != Extraction::Event::Kind::kSend) continue;
      if (last_step == binding.events.size()) {
        raw.push_back({binding.file, binding.events[e].line, "RNP308",
                       "send on bus '" + binding.var +
                           "', which is never stepped; the message cannot "
                           "be delivered"});
      } else if (e > last_step) {
        raw.push_back({binding.file, binding.events[e].line, "RNP308",
                       "send on bus '" + binding.var +
                           "' after its final step(); the round-phase order "
                           "is receive -> compute -> send -> step, so this "
                           "message is never delivered"});
      }
    }
  }

  for (const MessageSpec& msg : spec_.messages) {
    // Orphan checks need the whole tree in view.
    if (!partial_) {
      const MessageSpec* key = &msg;
      if (!usage[key].sent) {
        raw.push_back({spec_path_, msg.line, "RNP302",
                       "spec message '" + msg.name + "' (" + msg.file +
                           ") is never sent; drop the entry or wire the "
                           "sender"});
      }
      if (!usage[key].consumed) {
        raw.push_back({spec_path_, msg.line, "RNP303",
                       "spec message '" + msg.name + "' (" + msg.file +
                           ") is never consumed via inbox(); drop the entry "
                           "or add the handler"});
      }
    }
    if (partial_ && files_.count(msg.file) == 0) continue;
    const Extraction::StructDef* def = nullptr;
    const auto defs = ex.structs.find(msg.name);
    if (defs != ex.structs.end()) {
      for (const auto& candidate : defs->second) {
        if (candidate.file == msg.file) def = &candidate;
      }
    }
    if (def == nullptr) {
      raw.push_back({spec_path_, msg.line, "RNP310",
                     "payload struct '" + msg.name + "' not found in " +
                         msg.file + " (spec and code disagree)"});
      continue;
    }
    std::set<std::string> visiting = {msg.name};
    ex.scan_members(
        *def,
        [&](std::size_t line, const std::string& description) {
          raw.push_back({msg.file, line, "RNP307",
                         "payload '" + msg.name + "' has a " + description +
                             "; wire formats must serialize "
                             "deterministically"});
        },
        visiting);
  }

  for (const ConstantSpec& constant : spec_.constants) {
    const auto it = ex.tokens.find(constant.file);
    if (it == ex.tokens.end()) {
      if (partial_) continue;
      raw.push_back({spec_path_, constant.line, "RNP309",
                     "constant '" + constant.name + "' pins " + constant.file +
                         ", which is not in the checked tree"});
      continue;
    }
    const std::vector<Tok> needle = tokenize({constant.code});
    const std::vector<Tok>& hay = it->second;
    bool found = needle.empty();
    for (std::size_t i = 0; !found && needle.size() <= hay.size() &&
                            i + needle.size() <= hay.size();
         ++i) {
      bool match = true;
      for (std::size_t j = 0; j < needle.size(); ++j) {
        if (hay[i + j].text != needle[j].text) {
          match = false;
          break;
        }
      }
      found = match;
    }
    if (!found) {
      raw.push_back({spec_path_, constant.line, "RNP309",
                     "constant '" + constant.name + "': `" + constant.code +
                         "` no longer appears in " + constant.file +
                         "; the code drifted from the spec (update one of "
                         "them deliberately)"});
    }
  }

  // Suppressions. Findings anchored to the spec file have no comment lines
  // to carry suppressions; they are fixed in the spec or carved out via
  // [allow].
  std::map<std::string, textscan::LineSuppressions> suppressions;
  for (const auto& [path, file] : files_) {
    auto collected =
        textscan::collect_suppressions(file, "reconfnet-protocheck:", "RNP");
    for (const std::size_t line : collected.malformed) {
      raw.push_back({path, line, "RNP390",
                     "malformed suppression; expected "
                     "`reconfnet-protocheck: allow(RNPxxx) reason`"});
    }
    suppressions.emplace(path, std::move(collected));
  }
  std::map<std::string, std::set<std::pair<std::size_t, std::string>>> used;
  for (Finding& finding : raw) {
    if (allowed(finding.rule, finding.file)) {
      result.suppressed_findings.push_back(std::move(finding));
      continue;
    }
    const auto file_it = suppressions.find(finding.file);
    if (finding.rule != "RNP390" && file_it != suppressions.end()) {
      const auto line_it = file_it->second.allow.find(finding.line);
      if (line_it != file_it->second.allow.end() &&
          line_it->second.count(finding.rule) != 0) {
        ++result.suppressed;
        used[finding.file].insert({finding.line, finding.rule});
        result.suppressed_findings.push_back(std::move(finding));
        continue;
      }
    }
    result.findings.push_back(std::move(finding));
  }
  for (const auto& [path, sup] : suppressions) {
    const auto stale = textscan::stale_suppressions(path, sup, used[path]);
    result.stale.insert(result.stale.end(), stale.begin(), stale.end());
  }

  textscan::sort_and_dedupe(result.findings);
  textscan::sort_and_dedupe(result.suppressed_findings);
  return result;
}

}  // namespace reconfnet::protocheck
