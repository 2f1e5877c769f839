#include "script/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::script {

namespace {

[[noreturn]] void eval_fail(const std::string& msg, int line) {
  throw EvalError(msg + " (line " + std::to_string(line) + ")");
}

}  // namespace

Interpreter::Interpreter() { install_builtins(); }

void Interpreter::set_global(const std::string& name, Value v) {
  globals_.vars[name] = std::move(v);
}

Value Interpreter::global(const std::string& name) const {
  const auto it = globals_.vars.find(name);
  if (it == globals_.vars.end()) {
    throw NotFoundError("no global named '" + name + "'");
  }
  return it->second;
}

void Interpreter::register_method(const std::string& type,
                                  const std::string& name,
                                  HostMethod method) {
  methods_[type][name] = std::move(method);
}

void Interpreter::emit(const std::string& line) {
  output_.push_back(line);
  if (echo_) std::fputs((line + "\n").c_str(), stdout);
}

void Interpreter::run(const std::string& source) {
  auto prog = parse_program(source);
  retained_.push_back(prog);
  executed_ = 0;
  // Each top-level statement is a span (nested blocks run inside it), so
  // a telemetry snapshot attributes interpreter time per statement; the
  // self_diagnosis rules judge "script.statement"'s share of the run.
  static const telemetry::SpanSite stmt_site("script.statement");
  for (const auto& s : prog->body) {
    telemetry::ScopedSpan span(stmt_site);
    exec(*s, nullptr);
  }
}

Value Interpreter::eval_expression(const std::string& source) {
  auto prog = parse_program(source);
  if (prog->body.size() != 1 || prog->body[0]->kind != Stmt::Kind::kExpr) {
    throw ParseError("expected a single expression");
  }
  retained_.push_back(prog);
  return eval(*prog->body[0]->value, nullptr);
}

void Interpreter::tick(int line) {
  if (++executed_ > statement_limit_) {
    eval_fail("script exceeded the statement limit (possible infinite loop)",
              line);
  }
}

void Interpreter::exec_block(const std::vector<StmtPtr>& body, Env* local) {
  for (const auto& s : body) exec(*s, local);
}

Value* Interpreter::lookup(const std::string& name, Env* local) {
  if (local != nullptr) {
    const auto it = local->vars.find(name);
    if (it != local->vars.end()) return &it->second;
  }
  const auto it = globals_.vars.find(name);
  if (it != globals_.vars.end()) return &it->second;
  return nullptr;
}

void Interpreter::assign(const Expr& target, Value v, Env* local) {
  if (target.kind == Expr::Kind::kName) {
    Env& env = local != nullptr ? *local : globals_;
    env.vars[target.text] = std::move(v);
    return;
  }
  if (target.kind == Expr::Kind::kIndex) {
    Value container = eval(*target.lhs, local);
    const Value index = eval(*target.rhs, local);
    if (container.is_list()) {
      auto& list = *container.as_list();
      auto i = static_cast<long long>(index.as_number());
      if (i < 0) i += static_cast<long long>(list.size());
      if (i < 0 || i >= static_cast<long long>(list.size())) {
        eval_fail("list index out of range", target.line);
      }
      list[static_cast<std::size_t>(i)] = std::move(v);
      return;
    }
    if (container.is_dict()) {
      (*container.as_dict())[index.as_string()] = std::move(v);
      return;
    }
    eval_fail("cannot index-assign into " + container.repr(), target.line);
  }
  eval_fail("invalid assignment target", target.line);
}

void Interpreter::exec(const Stmt& stmt, Env* local) {
  tick(stmt.line);
  switch (stmt.kind) {
    case Stmt::Kind::kExpr:
      (void)eval(*stmt.value, local);
      return;
    case Stmt::Kind::kAssign:
      assign(*stmt.target, eval(*stmt.value, local), local);
      return;
    case Stmt::Kind::kAugAssign: {
      Value current = eval(*stmt.target, local);
      Value result =
          binary(stmt.text, current, eval(*stmt.value, local), stmt.line);
      assign(*stmt.target, std::move(result), local);
      return;
    }
    case Stmt::Kind::kIf:
      if (eval(*stmt.value, local).truthy()) {
        exec_block(stmt.body, local);
      } else {
        exec_block(stmt.orelse, local);
      }
      return;
    case Stmt::Kind::kWhile:
      while (eval(*stmt.value, local).truthy()) {
        try {
          exec_block(stmt.body, local);
        } catch (const BreakSignal&) {
          break;
        } catch (const ContinueSignal&) {
          continue;
        }
      }
      return;
    case Stmt::Kind::kFor: {
      const Value iterable = eval(*stmt.value, local);
      std::vector<Value> items;
      if (iterable.is_list()) {
        items = *iterable.as_list();
      } else if (iterable.is_dict()) {
        for (const auto& [k, _] : *iterable.as_dict()) {
          items.emplace_back(k);
        }
      } else if (iterable.is_string()) {
        for (char c : iterable.as_string()) {
          items.emplace_back(std::string(1, c));
        }
      } else {
        eval_fail("cannot iterate over " + iterable.repr(), stmt.line);
      }
      Env& env = local != nullptr ? *local : globals_;
      for (auto& item : items) {
        env.vars[stmt.text] = std::move(item);
        try {
          exec_block(stmt.body, local);
        } catch (const BreakSignal&) {
          break;
        } catch (const ContinueSignal&) {
          continue;
        }
      }
      return;
    }
    case Stmt::Kind::kDef: {
      Env& env = local != nullptr ? *local : globals_;
      env.vars[stmt.func->name] = Value(UserFunction{stmt.func});
      return;
    }
    case Stmt::Kind::kReturn:
      throw ReturnSignal{stmt.value ? eval(*stmt.value, local) : Value()};
    case Stmt::Kind::kBreak:
      throw BreakSignal{};
    case Stmt::Kind::kContinue:
      throw ContinueSignal{};
    case Stmt::Kind::kPass:
      return;
  }
}

Value Interpreter::call(const Value& callee, const std::vector<Value>& args) {
  if (const auto* host = std::get_if<HostFnPtr>(&callee.v)) {
    static const telemetry::SpanSite host_site("script.host_call");
    static telemetry::Counter& host_calls =
        telemetry::counter("script.host_calls");
    telemetry::ScopedSpan span(host_site);
    host_calls.add();
    return (**host)(*this, args);
  }
  // Namespace dicts with a "__call__" entry act like Java classes whose
  // name is both a constructor and a holder of static constants
  // (DeriveMetricOperation(...) + DeriveMetricOperation.DIVIDE).
  if (callee.is_dict()) {
    const auto it = callee.as_dict()->find("__call__");
    if (it != callee.as_dict()->end()) return call(it->second, args);
  }
  if (const auto* user = std::get_if<UserFunction>(&callee.v)) {
    const FunctionDef& def = *user->def;
    if (args.size() != def.params.size()) {
      throw EvalError("function " + def.name + " expects " +
                      std::to_string(def.params.size()) + " argument(s), got " +
                      std::to_string(args.size()));
    }
    Env frame;
    for (std::size_t i = 0; i < args.size(); ++i) {
      frame.vars[def.params[i]] = args[i];
    }
    try {
      exec_block(def.body, &frame);
    } catch (ReturnSignal& ret) {
      return std::move(ret.value);
    }
    return Value();
  }
  throw EvalError("not callable: " + callee.repr());
}

Value Interpreter::binary(const std::string& op, const Value& a,
                          const Value& b, int line) {
  if (op == "+") {
    if (a.is_number() && b.is_number()) return a.as_number() + b.as_number();
    if (a.is_string() && b.is_string()) return a.as_string() + b.as_string();
    if (a.is_list() && b.is_list()) {
      auto out = *a.as_list();
      out.insert(out.end(), b.as_list()->begin(), b.as_list()->end());
      return make_list(std::move(out));
    }
    eval_fail("cannot add " + a.repr() + " and " + b.repr(), line);
  }
  if (op == "*") {
    if (a.is_number() && b.is_number()) return a.as_number() * b.as_number();
    if (a.is_string() && b.is_number()) {
      std::string out;
      for (int i = 0; i < static_cast<int>(b.as_number()); ++i) {
        out += a.as_string();
      }
      return out;
    }
    eval_fail("cannot multiply " + a.repr() + " and " + b.repr(), line);
  }
  const double x = a.as_number();
  const double y = b.as_number();
  if (op == "-") return x - y;
  if (op == "/") {
    if (y == 0.0) eval_fail("division by zero", line);
    return x / y;
  }
  if (op == "%") {
    if (y == 0.0) eval_fail("modulo by zero", line);
    return std::fmod(x, y);
  }
  if (op == "**") return std::pow(x, y);
  if (op == "//") {
    if (y == 0.0) eval_fail("division by zero", line);
    return std::floor(x / y);
  }
  eval_fail("unknown operator '" + op + "'", line);
}

Value Interpreter::compare(const std::string& op, const Value& a,
                           const Value& b, int line) {
  if (op == "==") return a.equals(b);
  if (op == "!=") return !a.equals(b);
  if (op == "in" || op == "notin") {
    bool found = false;
    if (b.is_list()) {
      for (const auto& item : *b.as_list()) {
        if (item.equals(a)) {
          found = true;
          break;
        }
      }
    } else if (b.is_dict()) {
      found = b.as_dict()->count(a.as_string()) != 0;
    } else if (b.is_string()) {
      found = b.as_string().find(a.as_string()) != std::string::npos;
    } else {
      eval_fail("'in' needs a list, dict or string", line);
    }
    return op == "in" ? found : !found;
  }
  // Ordering: numbers or strings.
  int cmp = 0;
  if (a.is_number() && b.is_number()) {
    cmp = a.as_number() < b.as_number()   ? -1
          : a.as_number() > b.as_number() ? 1
                                          : 0;
  } else if (a.is_string() && b.is_string()) {
    cmp = a.as_string().compare(b.as_string());
  } else {
    eval_fail("cannot order " + a.repr() + " and " + b.repr(), line);
  }
  if (op == "<") return cmp < 0;
  if (op == "<=") return cmp <= 0;
  if (op == ">") return cmp > 0;
  if (op == ">=") return cmp >= 0;
  eval_fail("unknown comparison '" + op + "'", line);
}

Value Interpreter::attribute(const Value& obj, const std::string& name,
                             int line) {
  // Namespace dicts: Utilities.getTrial -> dict lookup.
  if (obj.is_dict()) {
    const auto it = obj.as_dict()->find(name);
    if (it != obj.as_dict()->end()) return it->second;
    eval_fail("no attribute '" + name + "' on dict", line);
  }
  if (obj.is_host_object()) {
    const auto& hobj = obj.as_host_object();
    const auto type_it = methods_.find(hobj->type);
    if (type_it != methods_.end()) {
      const auto m = type_it->second.find(name);
      if (m != type_it->second.end()) {
        const HostMethod method = m->second;
        const HostObjPtr bound = hobj;
        return make_host_fn(
            [method, bound](Interpreter& interp,
                            const std::vector<Value>& args) {
              return method(interp, bound, args);
            });
      }
    }
    eval_fail("<" + hobj->type + "> has no method '" + name + "'", line);
  }
  if (obj.is_list()) {
    const ListPtr list = obj.as_list();
    if (name == "get") {
      // Java List API — keeps ported Jython/PerfExplorer scripts working
      // ("operator.processData().get(0)").
      return make_host_fn([list](Interpreter&, const std::vector<Value>& a) {
        auto i = static_cast<long long>(a.at(0).as_number());
        if (i < 0 || i >= static_cast<long long>(list->size())) {
          throw EvalError("list.get index out of range");
        }
        return (*list)[static_cast<std::size_t>(i)];
      });
    }
    if (name == "size") {
      return make_host_fn([list](Interpreter&, const std::vector<Value>&) {
        return Value(list->size());
      });
    }
    if (name == "append") {
      return make_host_fn([list](Interpreter&, const std::vector<Value>& a) {
        for (const auto& v : a) list->push_back(v);
        return Value();
      });
    }
    if (name == "extend") {
      return make_host_fn([list](Interpreter&, const std::vector<Value>& a) {
        for (const auto& v : a) {
          const auto& other = *v.as_list();
          list->insert(list->end(), other.begin(), other.end());
        }
        return Value();
      });
    }
    if (name == "sort") {
      return make_host_fn([list](Interpreter&, const std::vector<Value>&) {
        std::stable_sort(list->begin(), list->end(),
                         [](const Value& x, const Value& y) {
                           if (x.is_number() && y.is_number()) {
                             return x.as_number() < y.as_number();
                           }
                           return x.str() < y.str();
                         });
        return Value();
      });
    }
    eval_fail("list has no method '" + name + "'", line);
  }
  if (obj.is_string()) {
    const std::string s = obj.as_string();
    if (name == "upper" || name == "lower") {
      const bool up = name == "upper";
      return make_host_fn([s, up](Interpreter&, const std::vector<Value>&) {
        std::string out = s;
        std::transform(out.begin(), out.end(), out.begin(),
                       [up](unsigned char c) {
                         return static_cast<char>(up ? std::toupper(c)
                                                     : std::tolower(c));
                       });
        return Value(out);
      });
    }
    if (name == "startswith" || name == "endswith") {
      const bool starts = name == "startswith";
      return make_host_fn(
          [s, starts](Interpreter&, const std::vector<Value>& a) {
            const std::string& p = a.at(0).as_string();
            if (p.size() > s.size()) return Value(false);
            return Value(starts ? s.compare(0, p.size(), p) == 0
                                : s.compare(s.size() - p.size(), p.size(),
                                            p) == 0);
          });
    }
    if (name == "split") {
      return make_host_fn([s](Interpreter&, const std::vector<Value>& a) {
        const std::string sep = a.empty() ? " " : a[0].as_string();
        std::vector<Value> parts;
        std::size_t start = 0;
        while (true) {
          const auto p = s.find(sep, start);
          if (p == std::string::npos) {
            parts.emplace_back(s.substr(start));
            break;
          }
          parts.emplace_back(s.substr(start, p - start));
          start = p + sep.size();
        }
        return make_list(std::move(parts));
      });
    }
    if (name == "replace") {
      return make_host_fn([s](Interpreter&, const std::vector<Value>& a) {
        std::string out;
        const std::string& from = a.at(0).as_string();
        const std::string& to = a.at(1).as_string();
        std::size_t start = 0;
        while (true) {
          const auto p = s.find(from, start);
          if (p == std::string::npos || from.empty()) {
            out += s.substr(start);
            return Value(out);
          }
          out += s.substr(start, p - start) + to;
          start = p + from.size();
        }
      });
    }
    eval_fail("string has no method '" + name + "'", line);
  }
  eval_fail("no attribute '" + name + "' on " + obj.repr(), line);
}

Value Interpreter::eval(const Expr& e, Env* local) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
      return e.number;
    case Expr::Kind::kString:
      return e.text;
    case Expr::Kind::kBool:
      return e.boolean;
    case Expr::Kind::kNone:
      return Value();
    case Expr::Kind::kName: {
      Value* v = lookup(e.text, local);
      if (v == nullptr) {
        eval_fail("name '" + e.text + "' is not defined", e.line);
      }
      return *v;
    }
    case Expr::Kind::kList: {
      std::vector<Value> items;
      items.reserve(e.items.size());
      for (const auto& item : e.items) items.push_back(eval(*item, local));
      return make_list(std::move(items));
    }
    case Expr::Kind::kDict: {
      std::map<std::string, Value> items;
      for (std::size_t i = 0; i + 1 < e.items.size(); i += 2) {
        items[eval(*e.items[i], local).as_string()] =
            eval(*e.items[i + 1], local);
      }
      return make_dict(std::move(items));
    }
    case Expr::Kind::kUnary: {
      const Value v = eval(*e.lhs, local);
      if (e.text == "-") return -v.as_number();
      return !v.truthy();  // not
    }
    case Expr::Kind::kBinary:
      return binary(e.text, eval(*e.lhs, local), eval(*e.rhs, local),
                    e.line);
    case Expr::Kind::kCompare:
      return compare(e.text, eval(*e.lhs, local), eval(*e.rhs, local),
                     e.line);
    case Expr::Kind::kBoolOp: {
      const Value a = eval(*e.lhs, local);
      if (e.text == "and") {
        return a.truthy() ? eval(*e.rhs, local) : a;
      }
      return a.truthy() ? a : eval(*e.rhs, local);
    }
    case Expr::Kind::kCall: {
      const Value callee = eval(*e.lhs, local);
      std::vector<Value> args;
      args.reserve(e.items.size());
      for (const auto& a : e.items) args.push_back(eval(*a, local));
      tick(e.line);
      try {
        return call(callee, args);
      } catch (const Error&) {
        throw;
      }
    }
    case Expr::Kind::kAttribute:
      return attribute(eval(*e.lhs, local), e.text, e.line);
    case Expr::Kind::kIndex: {
      const Value container = eval(*e.lhs, local);
      const Value index = eval(*e.rhs, local);
      if (container.is_list()) {
        const auto& list = *container.as_list();
        auto i = static_cast<long long>(index.as_number());
        if (i < 0) i += static_cast<long long>(list.size());
        if (i < 0 || i >= static_cast<long long>(list.size())) {
          eval_fail("list index out of range", e.line);
        }
        return list[static_cast<std::size_t>(i)];
      }
      if (container.is_dict()) {
        const auto& dict = *container.as_dict();
        const auto it = dict.find(index.as_string());
        if (it == dict.end()) {
          eval_fail("key '" + index.as_string() + "' not found", e.line);
        }
        return it->second;
      }
      if (container.is_string()) {
        const auto& s = container.as_string();
        auto i = static_cast<long long>(index.as_number());
        if (i < 0) i += static_cast<long long>(s.size());
        if (i < 0 || i >= static_cast<long long>(s.size())) {
          eval_fail("string index out of range", e.line);
        }
        return std::string(1, s[static_cast<std::size_t>(i)]);
      }
      eval_fail("cannot index " + container.repr(), e.line);
    }
  }
  eval_fail("corrupt expression", e.line);
}

void Interpreter::install_builtins() {
  set_global("print", make_host_fn([](Interpreter& interp,
                                      const std::vector<Value>& args) {
    std::string line;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i != 0) line += ' ';
      line += args[i].str();
    }
    interp.emit(line);
    return Value();
  }));
  set_global("len", make_host_fn([](Interpreter&,
                                    const std::vector<Value>& args) {
    const Value& v = args.at(0);
    if (v.is_list()) return Value(v.as_list()->size());
    if (v.is_dict()) return Value(v.as_dict()->size());
    if (v.is_string()) return Value(v.as_string().size());
    throw EvalError("len() needs a list, dict or string");
  }));
  set_global("range", make_host_fn([](Interpreter&,
                                      const std::vector<Value>& args) {
    double lo = 0;
    double hi = 0;
    double step = 1;
    if (args.size() == 1) {
      hi = args[0].as_number();
    } else if (args.size() >= 2) {
      lo = args[0].as_number();
      hi = args[1].as_number();
      if (args.size() >= 3) step = args[2].as_number();
    }
    if (step == 0) throw EvalError("range() step must not be zero");
    std::vector<Value> out;
    if (step > 0) {
      for (double x = lo; x < hi; x += step) out.emplace_back(x);
    } else {
      for (double x = lo; x > hi; x += step) out.emplace_back(x);
    }
    return make_list(std::move(out));
  }));
  set_global("str", make_host_fn([](Interpreter&,
                                    const std::vector<Value>& args) {
    return Value(args.at(0).str());
  }));
  set_global("float", make_host_fn([](Interpreter&,
                                      const std::vector<Value>& args) {
    const Value& v = args.at(0);
    if (v.is_number()) return v;
    if (v.is_string()) {
      return Value(std::stod(v.as_string()));
    }
    if (v.is_bool()) return Value(v.as_bool() ? 1.0 : 0.0);
    throw EvalError("cannot convert to float: " + v.repr());
  }));
  set_global("int", make_host_fn([](Interpreter&,
                                    const std::vector<Value>& args) {
    const Value& v = args.at(0);
    if (v.is_number()) return Value(std::trunc(v.as_number()));
    if (v.is_string()) return Value(std::trunc(std::stod(v.as_string())));
    if (v.is_bool()) return Value(v.as_bool() ? 1.0 : 0.0);
    throw EvalError("cannot convert to int: " + v.repr());
  }));
  set_global("abs", make_host_fn([](Interpreter&,
                                    const std::vector<Value>& args) {
    return Value(std::abs(args.at(0).as_number()));
  }));
  set_global("round", make_host_fn([](Interpreter&,
                                      const std::vector<Value>& args) {
    const double x = args.at(0).as_number();
    if (args.size() >= 2) {
      const double scale = std::pow(10.0, args[1].as_number());
      return Value(std::round(x * scale) / scale);
    }
    return Value(std::round(x));
  }));
  set_global("min", make_host_fn([](Interpreter&,
                                    const std::vector<Value>& args) {
    const auto& xs =
        args.size() == 1 && args[0].is_list() ? *args[0].as_list() : args;
    if (xs.empty()) throw EvalError("min() of empty sequence");
    double best = xs[0].as_number();
    for (const auto& v : xs) best = std::min(best, v.as_number());
    return Value(best);
  }));
  set_global("max", make_host_fn([](Interpreter&,
                                    const std::vector<Value>& args) {
    const auto& xs =
        args.size() == 1 && args[0].is_list() ? *args[0].as_list() : args;
    if (xs.empty()) throw EvalError("max() of empty sequence");
    double best = xs[0].as_number();
    for (const auto& v : xs) best = std::max(best, v.as_number());
    return Value(best);
  }));
  set_global("sum", make_host_fn([](Interpreter&,
                                    const std::vector<Value>& args) {
    double total = 0;
    for (const auto& v : *args.at(0).as_list()) total += v.as_number();
    return Value(total);
  }));
  set_global("sorted", make_host_fn([](Interpreter&,
                                       const std::vector<Value>& args) {
    auto out = *args.at(0).as_list();
    std::stable_sort(out.begin(), out.end(),
                     [](const Value& x, const Value& y) {
                       if (x.is_number() && y.is_number()) {
                         return x.as_number() < y.as_number();
                       }
                       return x.str() < y.str();
                     });
    return make_list(std::move(out));
  }));
  set_global("type", make_host_fn([](Interpreter&,
                                     const std::vector<Value>& args) {
    const Value& v = args.at(0);
    if (v.is_none()) return Value("NoneType");
    if (v.is_bool()) return Value("bool");
    if (v.is_number()) return Value("float");
    if (v.is_string()) return Value("str");
    if (v.is_list()) return Value("list");
    if (v.is_dict()) return Value("dict");
    if (v.is_host_object()) return Value(v.as_host_object()->type);
    return Value("function");
  }));
}

}  // namespace perfknow::script
