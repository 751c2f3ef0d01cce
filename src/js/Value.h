//===- js/Value.h - MiniJS values, objects, environments --------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniJS runtime value model: tagged values, heap objects with
/// prototype chains, function objects (closures and host functions), and
/// scope environments. Objects and environments are garbage collected by
/// js/Heap.h.
///
/// Host integration: an Object may carry a HostClass pointer whose get/set
/// hooks intercept property access (how the runtime implements
/// element.value, document.getElementById, xhr.send, ...). This mirrors
/// the paper's need to observe accesses that "may access JavaScript heap
/// locations, browser-specific native data structures, or both" (Sec. 1).
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_JS_VALUE_H
#define WEBRACER_JS_VALUE_H

#include "mem/Location.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace wr::js {

class Object;
class Env;
class Interpreter;
struct FunctionLiteral;

/// Tag types for the two nullish values.
struct JsUndefined {
  bool operator==(const JsUndefined &) const = default;
};
struct JsNull {
  bool operator==(const JsNull &) const = default;
};

/// A MiniJS value.
class Value {
public:
  Value() : Data(JsUndefined{}) {}
  Value(JsUndefined) : Data(JsUndefined{}) {}
  Value(JsNull) : Data(JsNull{}) {}
  Value(bool B) : Data(B) {}
  Value(double N) : Data(N) {}
  Value(int N) : Data(static_cast<double>(N)) {}
  Value(std::string S) : Data(std::move(S)) {}
  Value(const char *S) : Data(std::string(S)) {}
  Value(Object *O) : Data(O) { assert(O && "null Object*; use JsNull"); }

  static Value undefined() { return Value(); }
  static Value null() { return Value(JsNull{}); }

  bool isUndefined() const {
    return std::holds_alternative<JsUndefined>(Data);
  }
  bool isNull() const { return std::holds_alternative<JsNull>(Data); }
  bool isNullish() const { return isUndefined() || isNull(); }
  bool isBool() const { return std::holds_alternative<bool>(Data); }
  bool isNumber() const { return std::holds_alternative<double>(Data); }
  bool isString() const { return std::holds_alternative<std::string>(Data); }
  bool isObject() const { return std::holds_alternative<Object *>(Data); }

  bool asBool() const { return std::get<bool>(Data); }
  double asNumber() const { return std::get<double>(Data); }
  const std::string &asString() const { return std::get<std::string>(Data); }
  Object *asObject() const { return std::get<Object *>(Data); }

  /// Object pointer or null for every other kind.
  Object *objectOrNull() const {
    return isObject() ? std::get<Object *>(Data) : nullptr;
  }

  /// Strict (===) equality.
  bool strictEquals(const Value &Other) const;

private:
  std::variant<JsUndefined, JsNull, bool, double, std::string, Object *> Data;
};

/// Completion records replace C++ exceptions inside the interpreter
/// (uncaught Throw completions terminate the current *operation* only,
/// modeling the paper's "hidden crashes", Sec. 2.3).
enum class CompletionKind : uint8_t {
  Normal,
  Return,
  Break,
  Continue,
  Throw,
};

struct Completion {
  CompletionKind Kind = CompletionKind::Normal;
  Value V;

  static Completion normal(Value V = Value()) {
    return {CompletionKind::Normal, std::move(V)};
  }
  static Completion ret(Value V) {
    return {CompletionKind::Return, std::move(V)};
  }
  static Completion brk() { return {CompletionKind::Break, Value()}; }
  static Completion cont() { return {CompletionKind::Continue, Value()}; }
  static Completion thrown(Value V) {
    return {CompletionKind::Throw, std::move(V)};
  }

  bool isThrow() const { return Kind == CompletionKind::Throw; }
  bool isAbrupt() const { return Kind != CompletionKind::Normal; }
};

/// Base class for everything the GC manages.
class GcObject {
public:
  enum class Kind : uint8_t { Object, Env };

  virtual ~GcObject();
  Kind gcKind() const { return GKind; }
  ContainerId containerId() const { return CId; }

protected:
  GcObject(Kind K, ContainerId Id) : GKind(K), CId(Id) {}

private:
  friend class Heap;
  friend class GcTracer;
  Kind GKind;
  ContainerId CId;
  bool Marked = false;
};

/// Signature of a native (host) function.
using HostFn =
    std::function<Completion(Interpreter &, Value ThisV, std::vector<Value> &)>;

/// Property-access interception for host-backed objects (DOM wrappers,
/// document, window, XHR). A single static instance per binding type.
class HostClass {
public:
  virtual ~HostClass();

  /// The class name reported by typeof-ish diagnostics.
  virtual const char *name() const = 0;

  /// Intercepts a property read. Returns true if handled.
  virtual bool hostGet(Interpreter &I, Object *Self, const std::string &Name,
                       Value &Out) {
    (void)I;
    (void)Self;
    (void)Name;
    (void)Out;
    return false;
  }

  /// Intercepts a property write. Returns true if handled.
  virtual bool hostSet(Interpreter &I, Object *Self, const std::string &Name,
                       const Value &V) {
    (void)I;
    (void)Self;
    (void)Name;
    (void)V;
    return false;
  }
};

/// A heap object: property table, optional prototype, optional array
/// storage, optional callability, optional host backing.
class Object final : public GcObject {
public:
  struct Property {
    std::string Name;
    Value V;
  };

  /// Closure data for script functions. The FunctionLiteral is owned by a
  /// Program AST kept alive by the script registry.
  struct FunctionData {
    const FunctionLiteral *Lit = nullptr;
    Env *Closure = nullptr;
    uint64_t FunctionId = 0; ///< Stable identity for EventHandlerLoc.
  };

  // -- Plain properties ----------------------------------------------------

  /// Looks up an own property; null if absent.
  Value *findOwnProperty(const std::string &Name);
  const Value *findOwnProperty(const std::string &Name) const;

  /// Sets (creating if needed) an own property.
  void setOwnProperty(const std::string &Name, Value V);

  /// Removes an own property; true if it existed.
  bool deleteOwnProperty(const std::string &Name);

  /// Own property names in insertion order (array indices first).
  std::vector<std::string> ownPropertyNames() const;

  const std::vector<Property> &properties() const { return Props; }

  // -- Prototype chain -----------------------------------------------------

  Object *proto() const { return Proto; }
  void setProto(Object *P) { Proto = P; }

  /// Walks the prototype chain. Null if not found anywhere.
  Value *findProperty(const std::string &Name);

  // -- Arrays ----------------------------------------------------------------

  bool isArray() const { return IsArray; }
  void makeArray() { IsArray = true; }
  std::vector<Value> &elements() { return Elems; }
  const std::vector<Value> &elements() const { return Elems; }

  // -- Functions -------------------------------------------------------------

  bool isCallable() const { return Fn.Lit != nullptr || Native != nullptr; }
  bool isScriptFunction() const { return Fn.Lit != nullptr; }
  bool isHostFunction() const { return Native != nullptr; }

  const FunctionData &functionData() const { return Fn; }
  void setFunctionData(FunctionData Data) { Fn = Data; }
  const HostFn &hostFunction() const { return *Native; }
  void setHostFunction(HostFn F, std::string Name = "");
  const std::string &functionName() const { return FnName; }
  void setFunctionName(std::string Name) { FnName = std::move(Name); }

  /// A stable identity for handler locations: FunctionId for script
  /// functions, containerId() otherwise.
  uint64_t handlerIdentity() const {
    return Fn.FunctionId ? Fn.FunctionId : containerId();
  }

  // -- Host backing ----------------------------------------------------------

  const HostClass *hostClass() const { return Class; }
  void setHostClass(const HostClass *C) { Class = C; }
  NodeId domNode() const { return Dom; }
  void setDomNode(NodeId N) { Dom = N; }
  uint64_t hostInt() const { return HostInt; }
  void setHostInt(uint64_t V) { HostInt = V; }
  void *hostPtr() const { return HostPtr; }
  void setHostPtr(void *P) { HostPtr = P; }

private:
  friend class Heap;
  explicit Object(ContainerId Id) : GcObject(Kind::Object, Id) {}

  std::vector<Property> Props;
  Object *Proto = nullptr;
  std::vector<Value> Elems;
  bool IsArray = false;
  FunctionData Fn;
  std::unique_ptr<HostFn> Native;
  std::string FnName;
  const HostClass *Class = nullptr;
  NodeId Dom = InvalidNodeId;
  uint64_t HostInt = 0;
  void *HostPtr = nullptr;
};

/// A lexical scope: named slots plus a parent pointer. Environments are GC
/// objects because closures capture them; a captured environment accessed
/// from two operations is exactly the paper's "local variables shared
/// between operations via a closure" (Sec. 4.1).
class Env final : public GcObject {
public:
  Env *parent() const { return Parent; }

  /// Own slot lookup; null if absent.
  Value *findOwn(const std::string &Name);

  /// Defines (or overwrites) an own slot.
  void define(const std::string &Name, Value V);

  bool hasOwn(const std::string &Name) const;

  /// Walks the scope chain to the environment owning \p Name; null if
  /// undeclared everywhere.
  Env *resolve(const std::string &Name);

  const std::vector<Object::Property> &slots() const { return Slots; }

private:
  friend class Heap;
  Env(ContainerId Id, Env *Parent) : GcObject(Kind::Env, Id), Parent(Parent) {}

  Env *Parent;
  std::vector<Object::Property> Slots;
};

/// Converts a value to a display string (used by reports, alert, and
/// string concatenation).
std::string toDisplayString(const Value &V);

/// Converts a number to its JS string form (integers print without ".0").
std::string numberToString(double N);

/// typeof semantics.
const char *typeOf(const Value &V);

} // namespace wr::js

#endif // WEBRACER_JS_VALUE_H
