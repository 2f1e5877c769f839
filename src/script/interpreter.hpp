// The PerfScript tree-walking interpreter.
//
// Hosts register globals (namespaces like `Utilities`), host functions,
// and per-type methods for host objects; scripts then automate analysis
// workflows exactly as PerfExplorer's Jython interface did (Fig. 1 of the
// paper). Output from print() is collected (and optionally echoed) so
// harnesses and tests can assert on it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "script/ast.hpp"
#include "script/value.hpp"

namespace perfknow::script {

/// Method on a host-object type.
using HostMethod = std::function<Value(Interpreter&, const HostObjPtr&,
                                       const std::vector<Value>&)>;

class Interpreter {
 public:
  /// Constructs with the standard builtins (print, len, range, str, ...).
  Interpreter();

  // ---- host surface ------------------------------------------------------
  void set_global(const std::string& name, Value v);
  [[nodiscard]] Value global(const std::string& name) const;

  /// Registers a method callable as `obj.name(...)` on host objects whose
  /// type tag equals `type`.
  void register_method(const std::string& type, const std::string& name,
                       HostMethod method);

  /// Where print() lines go. Default: collected only.
  void set_echo(bool echo) { echo_ = echo; }
  [[nodiscard]] const std::vector<std::string>& output() const noexcept {
    return output_;
  }
  void clear_output() { output_.clear(); }
  void emit(const std::string& line);

  // ---- execution -----------------------------------------------------------
  /// Parses and executes a whole script in the global scope.
  void run(const std::string& source);
  /// Parses and evaluates a single expression (for tests and REPL use).
  [[nodiscard]] Value eval_expression(const std::string& source);
  /// Calls a callable value with arguments.
  Value call(const Value& callee, const std::vector<Value>& args);

  /// Guard against runaway scripts: maximum executed statements per run()
  /// (default 10 million).
  void set_statement_limit(std::size_t limit) { statement_limit_ = limit; }

 private:
  struct Env {
    std::map<std::string, Value> vars;
  };

  // Control-flow signals.
  struct BreakSignal {};
  struct ContinueSignal {};
  struct ReturnSignal {
    Value value;
  };

  void exec_block(const std::vector<StmtPtr>& body, Env* local);
  void exec(const Stmt& stmt, Env* local);
  Value eval(const Expr& expr, Env* local);
  Value* lookup(const std::string& name, Env* local);
  void assign(const Expr& target, Value v, Env* local);
  Value attribute(const Value& obj, const std::string& name, int line);
  Value binary(const std::string& op, const Value& a, const Value& b,
               int line);
  Value compare(const std::string& op, const Value& a, const Value& b,
                int line);
  void tick(int line);

  void install_builtins();

  Env globals_;
  std::map<std::string, std::map<std::string, HostMethod>> methods_;
  std::vector<std::string> output_;
  bool echo_ = false;
  std::size_t statement_limit_ = 10'000'000;
  std::size_t executed_ = 0;
  std::vector<std::shared_ptr<Program>> retained_;  ///< keep ASTs alive
};

}  // namespace perfknow::script
