//===- runtime/Browser.h - The simulated browser engine ---------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated browser: windows/documents, the page-load pipeline that
/// interleaves HTML parsing with script execution, event dispatch with
/// capture/target/bubble phases, timers, XHR, and (simulated) user
/// actions. While executing it builds the paper's happens-before relation
/// (every rule of Sec. 3.3 plus the Appendix A refinements) and streams
/// operations, HB edges, and logical memory accesses to the registered
/// instrumentation sinks.
///
/// One Browser owns one JS heap and one global scope; same-origin frames
/// share the global scope (matching the paper's Fig. 1, where scripts in
/// sibling iframes race on one variable x) while each window keeps its own
/// document and its own load event (rule 7).
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_RUNTIME_BROWSER_H
#define WEBRACER_RUNTIME_BROWSER_H

#include "dom/Dom.h"
#include "hb/HbGraph.h"
#include "html/HtmlParser.h"
#include "instr/Instrumentation.h"
#include "js/Heap.h"
#include "js/Interpreter.h"
#include "js/Parser.h"
#include "mem/LocationInterner.h"
#include "obs/PhaseTimer.h"
#include "runtime/EventLoop.h"
#include "runtime/Network.h"

#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace wr::rt {

class Browser;

/// Tuning knobs for a browser instance.
struct BrowserOptions {
  uint64_t Seed = 1;

  /// Add rule-10 edges for AJAX requests. The paper's implementation did
  /// not (Sec. 7 limitations); ours does by default. Turning this off
  /// reproduces WebRacer's over-reporting on AJAX-heavy pages.
  bool EnableAjaxHbEdges = true;

  /// Virtual cost of one parser step (microseconds). When nonzero, each
  /// parse step runs as its own event-loop task, so timers, network
  /// completions, and user actions interleave with parsing - the
  /// partial-page-rendering window the paper's races live in (Sec. 2.1).
  /// Zero parses each document in a single task.
  VirtualTime ParseStepCost = 20;

  /// Instrument clearTimeout/clearInterval as writes to a per-timer
  /// logical location that callback execution reads. The paper lists the
  /// missing instrumentation as a limitation (Sec. 7: clear* "may race
  /// with the execution of handlers installed via setTimeout and
  /// setInterval"); we close it, with this switch for paper-fidelity
  /// comparisons.
  bool InstrumentTimerClears = true;
};

/// Container-id namespace for per-timer logical locations (bit 61 set).
inline constexpr ContainerId TimerContainerBit = 1ull << 61;

/// One event listener registration.
struct ListenerRecord {
  js::Value Handler;
  uint64_t HandlerId = 0;
  bool Capture = false;
};

/// Identifies an event target: a DOM node, or a non-node JS object
/// (window, XMLHttpRequest).
struct TargetKey {
  NodeId Node = InvalidNodeId;
  ContainerId Object = 0;

  bool operator==(const TargetKey &O) const = default;
};

struct TargetKeyHash {
  size_t operator()(const TargetKey &K) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(K.Node) << 32) ^
                                 K.Object);
  }
};

/// A browsing context: a window with its document and load state.
class Window {
public:
  Window(Browser &B, DocumentId Id, Window *Parent, Element *FrameElem);

  Document &document() { return *Doc; }
  const Document &document() const { return *Doc; }
  DocumentId documentId() const { return Doc->documentId(); }
  Window *parent() const { return ParentWindow; }
  Element *frameElement() const { return FrameElem; }
  js::Object *windowObject() const { return WindowObj; }
  js::Object *documentObject() const { return DocumentObj; }

  bool parsingDone() const { return ParsingDone; }
  bool dclFired() const { return DclFired; }
  bool loadFired() const { return LoadFired; }

  /// Host-setup API used by installWindowObjects.
  void setWindowObject(js::Object *O) { WindowObj = O; }
  void setDocumentObject(js::Object *O) { DocumentObj = O; }

private:
  friend class Browser;

  Browser &B;
  std::unique_ptr<Document> Doc;
  Window *ParentWindow;
  Element *FrameElem;
  js::Object *WindowObj = nullptr;
  js::Object *DocumentObj = nullptr;

  // Page-load pipeline state.
  std::unique_ptr<html::HtmlParser> Parser;
  bool ParsingDone = false;
  bool ParserSuspended = false;
  bool DclFired = false;
  bool LoadFired = false;
  int PendingLoads = 0; ///< Resources that delay the window load event.

  /// Tail of the synchronous parse/execute chain (rule 1 edges hang off
  /// this; DCL chains from it per rules 12-14).
  OpId ParseChainTail = InvalidOpId;
  /// Next-parse predecessors (exe of inline script, ld-end of sync
  /// script).
  std::vector<OpId> NextParsePreds;

  struct DeferredScript {
    Element *Elem = nullptr;
    bool Arrived = false;
    bool Executed = false;
    std::string Body;
  };
  std::vector<DeferredScript> Deferred;

  OpId DclEndOp = InvalidOpId;
  OpId LoadEndOp = InvalidOpId;
  /// ld(E)-end anchors collected for rule 15.
  std::vector<OpId> ElemLoadEnds;
};

/// A race-relevant trigger for the current operation (used by the replay
/// classifier to perturb schedules).
struct OpTrigger {
  TriggerKind Kind = TriggerKind::None;
  std::string Key;
};

/// The browser engine.
class Browser final : public js::RootProvider, public js::JsHooks {
public:
  explicit Browser(BrowserOptions Opts = BrowserOptions());
  ~Browser() override;

  Browser(const Browser &) = delete;
  Browser &operator=(const Browser &) = delete;

  // -- Subsystems ------------------------------------------------------------

  EventLoop &loop() { return Loop; }
  NetworkSimulator &network() { return Net; }
  HbGraph &hb() { return Hb; }
  js::Heap &heap() { return Heap; }
  js::Interpreter &interp() { return *Interp; }
  const BrowserOptions &options() const { return Opts; }

  /// Registers an instrumentation sink (race detector, trace recorder).
  void addSink(InstrumentationSink *Sink) { Sinks.addSink(Sink); }

  // -- Page loading -----------------------------------------------------------

  /// Starts loading \p Url (its HTML must be registered in the network)
  /// into a fresh main window. Returns immediately; drive with
  /// runToQuiescence().
  void loadPage(const std::string &Url);

  /// Runs the event loop until no tasks remain.
  void runToQuiescence() { Loop.runUntilIdle(); }

  Window *mainWindow() { return Windows.empty() ? nullptr
                                                : Windows.front().get(); }
  const std::vector<std::unique_ptr<Window>> &windows() const {
    return Windows;
  }

  // -- User simulation ---------------------------------------------------------

  /// Simulates a user click on \p Target at the current virtual time
  /// (dispatched immediately as a user operation).
  void userClick(Element *Target);

  /// Simulates the user typing \p Text into a text field: dispatches
  /// focus, keydown, input (mutating the field per the input-mirror
  /// model), keyup.
  void userType(Element *Target, const std::string &Text);

  /// Dispatches an arbitrary user event (mouseover, blur, ...).
  void userEvent(Element *Target, const std::string &Type);

  // -- Operations (Sec. 3.2) ---------------------------------------------------

  /// Creates an operation with happens-before edges from \p Preds and
  /// notifies sinks. Does not start it.
  OpId newOperation(Operation Meta,
                    std::vector<std::pair<OpId, HbRule>> Preds);

  /// Runs \p Body attributed to operation \p Op. Returns true if the
  /// operation crashed (uncaught JS exception). Nestable (inline event
  /// dispatch).
  template <typename Fn> bool runOperation(OpId Op, Fn &&Body) {
    beginOperation(Op);
    std::forward<Fn>(Body)();
    return endOperation();
  }

  /// Currently executing operation (InvalidOpId between tasks).
  OpId currentOp() const {
    return OpStack.empty() ? InvalidOpId : OpStack.back();
  }

  /// Marks the current operation crashed (uncaught exception observed).
  void noteCrash(const std::string &Message);

  /// Messages from uncaught exceptions, in order.
  const std::vector<std::string> &crashLog() const { return Crashes; }

  /// alert() messages, in order.
  const std::vector<std::string> &alerts() const { return Alerts; }
  void recordAlert(std::string Message) {
    Alerts.push_back(std::move(Message));
  }

  /// console.log lines.
  const std::vector<std::string> &consoleLog() const { return Console; }
  void recordConsole(std::string Line) {
    Console.push_back(std::move(Line));
  }

  // -- Memory accesses ----------------------------------------------------------

  /// The browser's location interner: every access the sinks see carries
  /// an id from this table. Ids are announced to sinks via
  /// onLocationInterned before their first use.
  const LocationInterner &interner() const { return Interner; }

  /// Records a logical memory access attributed to the current operation
  /// (generic path: interns \p Loc first).
  void recordAccess(AccessKind Kind, AccessOrigin Origin, const Location &Loc,
                    std::string Detail = std::string());

  /// Hot-path variant for (container, name) variable/property locations:
  /// interns without constructing a Location (or copying the name) when
  /// the location was seen before. DOM node properties use
  /// domContainer(N) as the container.
  void recordVarAccess(AccessKind Kind, AccessOrigin Origin,
                       ContainerId Container, std::string_view Name,
                       std::string Detail = std::string());

  /// Records an access to an already-interned location.
  void recordAccessId(AccessKind Kind, AccessOrigin Origin, LocId Loc,
                      std::string Detail = std::string());

  /// Hot-path variant for event-handler locations (Sec. 4.3 triples).
  void recordHandlerAccess(AccessKind Kind, AccessOrigin Origin, NodeId Target,
                           ContainerId TargetObject, std::string_view EventType,
                           uint64_t HandlerId,
                           std::string Detail = std::string());

  /// JsHooks implementation (variable/property accesses from MiniJS).
  void onVarRead(js::Env *Scope, std::string_view Name,
                 AccessOrigin Origin) override;
  void onVarWrite(js::Env *Scope, std::string_view Name,
                  AccessOrigin Origin) override;
  void onPropRead(js::Object *Obj, std::string_view Name,
                  AccessOrigin Origin) override;
  void onPropWrite(js::Object *Obj, std::string_view Name,
                   AccessOrigin Origin) override;

  /// Synthetic container id for host-modeled DOM node properties
  /// (value, parentNode, ...), stable across wrapper lifetimes.
  static ContainerId domContainer(NodeId N) { return domContainerId(N); }

  // -- DOM/JS integration --------------------------------------------------------

  /// The JS wrapper for a DOM node (created on demand, cached, GC-rooted
  /// while the browser lives).
  js::Object *wrapperFor(Node *N);

  /// The node behind a wrapper (null if not a wrapper).
  Node *nodeFor(js::Object *Wrapper) const;

  /// Window owning \p Doc.
  Window *windowForDocument(DocumentId Doc);

  /// Window whose windowObject/documentObject is \p O (null otherwise).
  Window *windowForObject(js::Object *O);

  /// Records the HtmlElemLoc writes for elements that just entered or
  /// left a document (Sec. 4.2), plus the parentNode/childNodes JSVar
  /// writes of Sec. 4.1.
  void recordElementInsertion(const std::vector<Element *> &Affected,
                              bool Inserted);

  /// Records a lookup read (getElementById & friends).
  void recordLookup(DocumentId Doc, ElemKeyKind Kind, std::string Key);

  /// The operation that created (inserted) a node, for rule 8.
  OpId creationOpOf(NodeId N) const;

  /// Registers a node in the id registry (done automatically by
  /// wrapperFor and element insertion).
  void registerNode(Node *N) { NodesById[N->id()] = N; }

  /// Node lookup by id (null if never registered).
  Node *nodeById(NodeId Id) const {
    auto It = NodesById.find(Id);
    return It == NodesById.end() ? nullptr : It->second;
  }

  /// Called by bindings when a script inserts new elements (dynamic
  /// scripts/images/iframes need load handling).
  void handleDynamicInsertion(Window &W, Element *E);

  // -- Events -------------------------------------------------------------------

  /// Registers a listener (addEventListener).
  void addListener(TargetKey Target, const std::string &Type,
                   js::Value Handler, bool Capture);

  /// Removes a listener (removeEventListener).
  void removeListener(TargetKey Target, const std::string &Type,
                      js::Value Handler);

  /// Sets the on<type> property/content-attribute slot (HandlerId 0).
  void setSlotHandler(TargetKey Target, const std::string &Type,
                      js::Value Handler);

  /// Sets the slot from handler source text (content attribute form).
  void setSlotHandlerSource(TargetKey Target, const std::string &Type,
                            std::string Source);

  /// Reads the slot handler (for el.onclick reads).
  js::Value slotHandler(TargetKey Target, const std::string &Type);

  /// Dispatches event \p Type on \p Target. \p ExtraBeginPreds are
  /// rule-specific edges into the dispatch-begin anchor (rule 3, 7, 10,
  /// 11, 15, ...). \p Trigger attributes the dispatch for replay.
  /// Returns the {begin, end} anchor operations.
  std::pair<OpId, OpId>
  dispatchEvent(TargetKey Target, const std::string &Type,
                std::vector<std::pair<OpId, HbRule>> ExtraBeginPreds,
                OpTrigger Trigger = OpTrigger());

  /// Dispatch count so far for (target, type); the single-dispatch filter
  /// uses this.
  int dispatchCount(TargetKey Target, const std::string &Type) const;

  /// True if any handler (slot or listener) is registered for
  /// (target, type). The automatic explorer uses this to decide which
  /// events to generate.
  bool hasRegisteredHandler(TargetKey Target,
                            const std::string &Type) const;

  /// True if any handler for (target, type) actually executed during this
  /// run. The harm classifier uses installed-but-never-ran as evidence
  /// that a dispatch race lost a handler (Sec. 6.3's event-dispatch
  /// criterion).
  bool anyHandlerExecuted(TargetKey Target, const std::string &Type) const {
    return ExecutedHandlerKeys.count(dispatchKeyOf(Target, Type)) != 0;
  }

  /// All (target, type) pairs dispatched, with counts.
  const std::unordered_map<std::string, int> &dispatchCounts() const {
    return DispatchCountByKey;
  }

  // -- Timers ---------------------------------------------------------------------

  /// setTimeout. \p Callback is a function value or source string.
  uint64_t setTimeout(js::Value Callback, VirtualTime DelayMs);
  /// setInterval.
  uint64_t setInterval(js::Value Callback, VirtualTime DelayMs);
  void clearTimer(uint64_t TimerId);

  // -- XHR ---------------------------------------------------------------------

  /// Issues an XHR send for \p Xhr (its "url" own property holds the
  /// target). Called from the XHR host class.
  void xhrSend(js::Object *Xhr);

  // -- Script execution -----------------------------------------------------------

  /// Parses and caches a script; returns null on syntax errors (recorded
  /// in parseErrorLog).
  const js::Program *compile(const std::string &Source,
                             const std::string &OriginTag);

  /// Runs JS source in the global scope inside the current operation,
  /// recording a crash on uncaught exceptions.
  void runScriptSource(const std::string &Source,
                       const std::string &OriginTag,
                       js::Value ThisV = js::Value());

  /// Invokes a JS function value inside the current operation.
  void invokeHandler(js::Value Handler, js::Value ThisV,
                     std::vector<js::Value> Args);

  const std::vector<std::string> &parseErrorLog() const {
    return ParseErrors;
  }

  // -- GC root provider ------------------------------------------------------------

  void traceRoots(js::GcTracer &T) override;

  /// Statistics.
  uint64_t numOperationsRun() const { return OpsRun; }

  /// Per-phase wall/virtual time accumulated while running operations.
  /// Wall time is attributed to the phase of the innermost operation
  /// (self time, not inclusive); virtual-time deltas are attributed to
  /// the phase of the operation observing them, which keeps the virtual
  /// figures deterministic.
  const obs::PhaseStats &phaseStats() const { return Phases; }
  obs::PhaseStats &phaseStats() { return Phases; }

private:
  friend class Window;

  // Page-load pipeline.
  Window *createWindow(Window *Parent, Element *FrameElem);
  void startWindowLoad(Window &W, const std::string &Url);
  void pumpParser(Window &W);
  void handleParsedElement(Window &W, Element *E, OpId ParseOp);
  void handleScriptComplete(Window &W, Element *Script,
                            std::string InlineBody);
  void startImageLoad(Window &W, Element *Img, OpId CreateOp);
  void startFrameLoad(Window &W, Element *Frame, OpId CreateOp);
  void onStaticParsingDone(Window &W);
  void tryRunDeferred(Window &W);
  void fireDomContentLoaded(Window &W);
  void tryFireWindowLoad(Window &W);
  void notePendingLoadDone(Window &W);

  /// Executes one script element body in a fresh exe operation.
  void executeScriptElement(Window &W, Element *Script,
                            const std::string &Body,
                            std::vector<std::pair<OpId, HbRule>> Preds,
                            OpTrigger Trigger);

  /// Fires the load event for an element (rule 3 edge from \p ExeOp when
  /// the element is a script). Collects rule-15 anchors.
  void fireElementLoad(Window &W, Element *E, OpId ExeOp,
                       OpTrigger Trigger);

  void beginOperation(OpId Op);
  bool endOperation();

  /// Runs one handler value (function or attr source) as an EventHandler
  /// operation; returns the op id.
  OpId runHandlerOp(TargetKey Target, js::Object *CurrentTargetObj,
                    const std::string &Type, js::Value Handler,
                    uint64_t HandlerId, OpId Pred, OpTrigger Trigger,
                    int DispatchIndex);

  std::string dispatchKeyOf(TargetKey Target, const std::string &Type) const;

  /// Runs \p Fn (an interner call returning a LocId) and announces the id
  /// to sinks if the call created it.
  template <typename InternFn> LocId announceIntern(InternFn &&Fn) {
    size_t Before = Interner.size();
    LocId Id = Fn();
    if (Interner.size() != Before)
      Sinks.onLocationInterned(Id, Interner.resolve(Id));
    return Id;
  }

  BrowserOptions Opts;
  EventLoop Loop;
  NetworkSimulator Net;
  HbGraph Hb;
  js::Heap Heap;
  js::Env *GlobalEnv = nullptr;
  std::unique_ptr<js::Interpreter> Interp;
  MultiSink Sinks;
  LocationInterner Interner;

  std::vector<std::unique_ptr<Window>> Windows;
  DocumentId NextDocId = 1;
  uint32_t NextNodeId = 1;

  std::vector<OpId> OpStack;
  std::vector<bool> CrashFlagStack;
  /// One frame per nested operation: when it started, wall time spent in
  /// nested operations (subtracted for self time), and its phase.
  struct TimingFrame {
    std::chrono::steady_clock::time_point Start;
    uint64_t ChildNanos = 0;
    obs::Phase Ph = obs::Phase::Script;
  };
  std::vector<TimingFrame> TimingStack;
  obs::PhaseStats Phases;
  /// Virtual time already attributed to a phase (advance observed at the
  /// next outermost operation begin).
  VirtualTime VirtualMark = 0;
  uint64_t OpsRun = 0;
  OpId BootstrapOp = InvalidOpId;
  OpId LastScriptExeOp = InvalidOpId;
  OpId LastElemLoadEnd = InvalidOpId;

  // Wrappers and creation tracking.
  std::unordered_map<NodeId, js::Object *> Wrappers;
  std::unordered_map<NodeId, Node *> NodesById;
  std::unordered_map<NodeId, OpId> CreatedBy;

  // Event listeners: key = target/type string.
  struct TargetListeners {
    std::vector<ListenerRecord> Listeners;
    js::Value Slot; ///< on<type> property / content attribute handler.
    bool SlotIsAttrSource = false;
    std::string AttrSource;
  };
  std::unordered_map<std::string, TargetListeners> ListenerMap;
  std::unordered_map<std::string, int> DispatchCountByKey;
  std::unordered_map<std::string, OpId> LastDispatchEnd;
  std::unordered_set<std::string> ExecutedHandlerKeys;

  // Timers.
  struct TimerRecord {
    uint64_t Id = 0;
    js::Value Callback;
    VirtualTime Delay = 0;
    bool Interval = false;
    bool Cancelled = false;
    OpId CreatorOp = InvalidOpId;
    OpId LastCallbackOp = InvalidOpId;
    int Index = 0;
    EventLoop::TaskId Task = 0;
  };
  std::unordered_map<uint64_t, TimerRecord> Timers;
  uint64_t NextTimerId = 1;

  // Compiled scripts (ASTs must outlive function values).
  std::vector<std::unique_ptr<js::Program>> CompiledScripts;
  std::unordered_map<std::string, const js::Program *> CompileCache;
  std::vector<std::string> ParseErrors;

  std::vector<std::string> Alerts;
  std::vector<std::string> Console;
  std::vector<std::string> Crashes;

  // Values that must survive GC: pending timer callbacks and listener
  // handlers are traced via the structures above; this pins transient
  // host-held values (XHR objects in flight, ...).
  std::vector<js::Value> PinnedValues;

public:
  /// Pins a value for the browser's lifetime (host bookkeeping).
  void pinValue(js::Value V) { PinnedValues.push_back(std::move(V)); }
};

/// Installs the browser-level JS bindings (document/window/element host
/// classes, setTimeout, XMLHttpRequest, alert, ...) into the browser's
/// global scope. Defined in Bindings.cpp; called by the Browser
/// constructor.
void installBindings(Browser &B);

/// Creates the window/document host objects for \p W. Called whenever a
/// window is created.
void installWindowObjects(Browser &B, Window &W);

} // namespace wr::rt

#endif // WEBRACER_RUNTIME_BROWSER_H
