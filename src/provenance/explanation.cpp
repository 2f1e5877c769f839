#include "provenance/explanation.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::provenance {

namespace {

telemetry::Counter& rendered_counter() {
  static telemetry::Counter& c =
      telemetry::counter("provenance.explanations_rendered");
  return c;
}

// The escaping and shortest-round-trip number policies live in
// common/json so the wire envelope and the explanation renderer cannot
// drift apart.
std::string json_value(const rules::FactValue& v) {
  if (const auto* d = std::get_if<double>(&v)) return json::number(*d);
  if (const auto* s = std::get_if<std::string>(&v)) {
    return json::quote(*s);
  }
  return std::get<bool>(v) ? "true" : "false";
}

// ---------------------------------------------------------------------
// Text proof tree
// ---------------------------------------------------------------------

void indent(std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

std::string headline(const Explanation& e) {
  // Mirrors Diagnosis::to_string so the explanation opens with the
  // exact line the analyst already saw in the report.
  std::string out = "[" + e.problem + "] " + e.event;
  if (!e.metric.empty()) out += " {" + e.metric + "}";
  out += " (severity " + strings::format_double(e.severity, 2) +
         ", rule \"" + e.rule + "\")";
  if (!e.message.empty()) out += ": " + e.message;
  if (!e.recommendation.empty()) out += " -> " + e.recommendation;
  return out;
}

void render_firing(const FiringNode& f, int depth, std::string& out) {
  indent(out, depth);
  out += "because rule \"" + f.rule + "\" fired (" + f.rule_loc.str() +
         ", salience " + std::to_string(f.salience) + ", round " +
         std::to_string(f.generation) + ")\n";
  if (!f.bindings.empty()) {
    indent(out, depth + 1);
    out += "with ";
    bool first = true;
    for (const auto& [k, v] : f.bindings) {
      if (!first) out += ", ";
      first = false;
      out += k + " = " + rules::to_display(v);
    }
    out += "\n";
  }
  for (const auto& p : f.prints) {
    indent(out, depth + 1);
    out += "printed: " + p + "\n";
  }
  for (const auto& bf : f.facts) {
    indent(out, depth + 1);
    out += "matched " + bf.type + " #" + std::to_string(bf.id);
    if (bf.pattern_loc.known()) {
      out += " (pattern at " + bf.pattern_loc.str() + ")";
    }
    out += "\n";
    for (const auto& [k, v] : bf.fields) {
      indent(out, depth + 2);
      out += k + " = " + rules::to_display(v) + "\n";
    }
    if (bf.derived_from) {
      render_firing(*bf.derived_from, depth + 2, out);
    } else {
      indent(out, depth + 2);
      out += "from " +
             (bf.origin.empty() ? std::string("(unknown origin)")
                                : bf.origin) +
             "\n";
      for (const auto& line : bf.lineage) {
        indent(out, depth + 3);
        out += line + "\n";
      }
    }
  }
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

void json_loc(const SourceLoc& loc, std::string& out) {
  out += "\"file\":" + json::quote(loc.file) + ",\"line\":" +
         std::to_string(loc.line) + ",\"column\":" +
         std::to_string(loc.column);
}

void json_firing(const FiringNode& f, std::string& out) {
  out += "{\"id\":" + std::to_string(f.id) +
         ",\"rule\":" + json::quote(f.rule) + ",";
  json_loc(f.rule_loc, out);
  out += ",\"salience\":" + std::to_string(f.salience) +
         ",\"generation\":" + std::to_string(f.generation) +
         ",\"bindings\":{";
  bool first = true;
  for (const auto& [k, v] : f.bindings) {
    if (!first) out += ",";
    first = false;
    out += json::quote(k) + ":" + json_value(v);
  }
  out += "},\"facts\":[";
  first = true;
  for (const auto& bf : f.facts) {
    if (!first) out += ",";
    first = false;
    out += "{\"fact\":" + std::to_string(bf.id) +
           ",\"type\":" + json::quote(bf.type) + ",";
    json_loc(bf.pattern_loc, out);
    out += ",\"fields\":{";
    bool ff = true;
    for (const auto& [k, v] : bf.fields) {
      if (!ff) out += ",";
      ff = false;
      out += json::quote(k) + ":" + json_value(v);
    }
    out += "}";
    if (!bf.origin.empty()) {
      out += ",\"origin\":" + json::quote(bf.origin);
    }
    if (!bf.lineage.empty()) {
      out += ",\"lineage\":[";
      bool fl = true;
      for (const auto& line : bf.lineage) {
        if (!fl) out += ",";
        fl = false;
        out += json::quote(line);
      }
      out += "]";
    }
    if (bf.derived_from) {
      out += ",\"derived_from\":";
      json_firing(*bf.derived_from, out);
    }
    out += "}";
  }
  out += "],\"prints\":[";
  first = true;
  for (const auto& p : f.prints) {
    if (!first) out += ",";
    first = false;
    out += json::quote(p);
  }
  out += "]}";
}

void json_explanation(const Explanation& e, std::string& out) {
  out += "{\"schema\":\"perfknow.explanation/1\",\"diagnosis\":{";
  out += "\"rule\":" + json::quote(e.rule) +
         ",\"problem\":" + json::quote(e.problem) +
         ",\"event\":" + json::quote(e.event) +
         ",\"metric\":" + json::quote(e.metric) +
         ",\"severity\":" + json::number(e.severity) +
         ",\"message\":" + json::quote(e.message) +
         ",\"recommendation\":" + json::quote(e.recommendation) +
         "},\"firing\":";
  if (e.root) {
    json_firing(*e.root, out);
  } else {
    out += "null";
  }
  out += "}";
}

// ---------------------------------------------------------------------
// DOT
// ---------------------------------------------------------------------

std::string dot_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

struct DotWriter {
  std::string body;
  std::set<std::size_t> firings;
  std::set<rules::FactId> facts;
  std::set<std::string> edges;

  void edge(const std::string& from, const std::string& to) {
    const std::string e = "  " + from + " -> " + to + ";\n";
    if (edges.insert(e).second) body += e;
  }

  void visit(const FiringNode& f) {
    const std::string rnode = "r" + std::to_string(f.id);
    if (firings.insert(f.id).second) {
      body += "  " + rnode + " [shape=box,label=\"rule \\\"" +
              dot_escape(f.rule) + "\\\"\\n" + dot_escape(f.rule_loc.str()) +
              ", round " + std::to_string(f.generation) + "\"];\n";
    }
    for (const auto& bf : f.facts) {
      const std::string fnode = "f" + std::to_string(bf.id);
      if (facts.insert(bf.id).second) {
        std::string label = bf.type + " #" + std::to_string(bf.id);
        int shown = 0;
        for (const auto& [k, v] : bf.fields) {
          if (++shown > 6) {
            label += "\n...";
            break;
          }
          label += "\n" + k + " = " + rules::to_display(v);
        }
        body += "  " + fnode + " [shape=ellipse,label=\"" +
                dot_escape(label) + "\"];\n";
        if (!bf.derived_from && !bf.origin.empty()) {
          const std::string onode = "o" + std::to_string(bf.id);
          body += "  " + onode + " [shape=note,label=\"" +
                  dot_escape(bf.origin) + "\"];\n";
          edge(onode, fnode);
        }
      }
      edge(fnode, rnode);
      if (bf.derived_from) {
        visit(*bf.derived_from);
        edge("r" + std::to_string(bf.derived_from->id), fnode);
      }
    }
  }
};

// ---------------------------------------------------------------------
// JSON ingest (the `pkx explain --from` path; fuzzed)
// ---------------------------------------------------------------------
//
// The value model and parser live in common/json.{hpp,cpp} (hoisted from
// here, behaviour unchanged); what remains is the mapping back onto
// Explanation.

using JsonValue = json::Value;

// --- mapping the JSON value model back onto Explanation ---------------

double num_or(const JsonValue* v, double fallback) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : fallback;
}

/// num_or as an integer of type T; `fallback` too when the number lies
/// outside T's range, where the cast would be undefined.
template <class T>
T int_or(const JsonValue* v, T fallback) {
  const double d = num_or(v, static_cast<double>(fallback));
  const double low = static_cast<double>(std::numeric_limits<T>::min()) - 1.0;
  const double high = std::ldexp(1.0, std::numeric_limits<T>::digits);
  return d > low && d < high ? static_cast<T>(d) : fallback;
}

std::string text_or(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->text : "";
}

SourceLoc loc_from(const JsonValue& obj) {
  SourceLoc loc;
  loc.file = text_or(obj.find("file"));
  loc.line = int_or(obj.find("line"), 0);
  loc.column = int_or(obj.find("column"), 0);
  return loc;
}

rules::FactValue fact_value_from(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kBool: return v.boolean;
    case JsonValue::Kind::kString: return v.text;
    case JsonValue::Kind::kNumber: return v.number;
    default: return 0.0;
  }
}

std::shared_ptr<const FiringNode> firing_from(const JsonValue& obj);

BoundFact bound_fact_from(const JsonValue& obj) {
  BoundFact bf;
  bf.id = int_or<rules::FactId>(obj.find("fact"), 0);
  bf.type = text_or(obj.find("type"));
  bf.pattern_loc = loc_from(obj);
  if (const auto* fields = obj.find("fields");
      fields != nullptr && fields->kind == JsonValue::Kind::kObject) {
    for (const auto& [k, v] : fields->members) {
      bf.fields[k] = fact_value_from(v);
    }
  }
  bf.origin = text_or(obj.find("origin"));
  if (const auto* lineage = obj.find("lineage");
      lineage != nullptr && lineage->kind == JsonValue::Kind::kArray) {
    for (const auto& item : lineage->items) {
      if (item.kind == JsonValue::Kind::kString) {
        bf.lineage.push_back(item.text);
      }
    }
  }
  if (const auto* from = obj.find("derived_from");
      from != nullptr && from->kind == JsonValue::Kind::kObject) {
    bf.derived_from = firing_from(*from);
  }
  return bf;
}

std::shared_ptr<const FiringNode> firing_from(const JsonValue& obj) {
  auto f = std::make_shared<FiringNode>();
  f->id = int_or<std::size_t>(obj.find("id"), 0);
  f->rule = text_or(obj.find("rule"));
  f->rule_loc = loc_from(obj);
  f->salience = int_or(obj.find("salience"), 0);
  f->generation = int_or<std::size_t>(obj.find("generation"), 0);
  if (const auto* bindings = obj.find("bindings");
      bindings != nullptr && bindings->kind == JsonValue::Kind::kObject) {
    for (const auto& [k, v] : bindings->members) {
      f->bindings[k] = fact_value_from(v);
    }
  }
  if (const auto* facts = obj.find("facts");
      facts != nullptr && facts->kind == JsonValue::Kind::kArray) {
    for (const auto& item : facts->items) {
      if (item.kind == JsonValue::Kind::kObject) {
        f->facts.push_back(bound_fact_from(item));
      }
    }
  }
  if (const auto* prints = obj.find("prints");
      prints != nullptr && prints->kind == JsonValue::Kind::kArray) {
    for (const auto& item : prints->items) {
      if (item.kind == JsonValue::Kind::kString) {
        f->prints.push_back(item.text);
      }
    }
  }
  return f;
}

Explanation explanation_from(const JsonValue& obj) {
  Explanation e;
  if (const auto* d = obj.find("diagnosis");
      d != nullptr && d->kind == JsonValue::Kind::kObject) {
    e.rule = text_or(d->find("rule"));
    e.problem = text_or(d->find("problem"));
    e.event = text_or(d->find("event"));
    e.metric = text_or(d->find("metric"));
    e.severity = num_or(d->find("severity"), 0.0);
    e.message = text_or(d->find("message"));
    e.recommendation = text_or(d->find("recommendation"));
  }
  if (const auto* f = obj.find("firing");
      f != nullptr && f->kind == JsonValue::Kind::kObject) {
    e.root = firing_from(*f);
  }
  return e;
}

}  // namespace

std::string to_text(const Explanation& e) {
  rendered_counter().add();
  std::string out = headline(e) + "\n";
  if (e.root) {
    render_firing(*e.root, 1, out);
  } else {
    indent(out, 1);
    out += "(no recorded inference chain)\n";
  }
  return out;
}

std::string to_json(const Explanation& e) {
  rendered_counter().add();
  std::string out;
  json_explanation(e, out);
  out += "\n";
  return out;
}

std::string to_json(const std::vector<Explanation>& es) {
  rendered_counter().add();
  std::string out = "[";
  bool first = true;
  for (const auto& e : es) {
    if (!first) out += ",\n ";
    first = false;
    json_explanation(e, out);
  }
  out += "]\n";
  return out;
}

std::string to_dot(const std::vector<Explanation>& es) {
  rendered_counter().add();
  DotWriter w;
  std::size_t dn = 0;
  for (const auto& e : es) {
    const std::string dnode = "d" + std::to_string(dn++);
    w.body += "  " + dnode + " [shape=doubleoctagon,label=\"" +
              dot_escape(headline(e)) + "\"];\n";
    if (e.root) {
      w.visit(*e.root);
      w.edge("r" + std::to_string(e.root->id), dnode);
    }
  }
  return "digraph provenance {\n  rankdir=BT;\n  node [fontsize=10];\n" +
         w.body + "}\n";
}

std::string to_dot(const Explanation& e) {
  return to_dot(std::vector<Explanation>{e});
}

std::vector<Explanation> explanations_from_json(const std::string& json) {
  const JsonValue root = perfknow::json::parse(json);
  std::vector<Explanation> out;
  if (root.kind == JsonValue::Kind::kArray) {
    for (const auto& item : root.items) {
      if (item.kind != JsonValue::Kind::kObject) {
        throw ParseError("explanation array element is not an object");
      }
      out.push_back(explanation_from(item));
    }
  } else if (root.kind == JsonValue::Kind::kObject) {
    out.push_back(explanation_from(root));
  } else {
    throw ParseError("explanation JSON must be an object or array");
  }
  return out;
}

}  // namespace perfknow::provenance
