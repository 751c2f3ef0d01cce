//===- runtime/Browser.cpp - The simulated browser engine -------------------===//

#include "runtime/Browser.h"

#include "runtime/Bindings.h"
#include "js/StdLib.h"
#include "support/Format.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace wr;
using namespace wr::rt;

// ---------------------------------------------------------------------------
// Window
// ---------------------------------------------------------------------------

Window::Window(Browser &B, DocumentId Id, Window *Parent, Element *FrameElem)
    : B(B), Doc(std::make_unique<Document>(Id, B.NextNodeId)),
      ParentWindow(Parent), FrameElem(FrameElem) {}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

/// Per-operation MiniJS step budget: a script that runs away crashes its
/// operation instead of hanging the page.
constexpr uint64_t StepBudget = 5'000'000;

Browser::Browser(BrowserOptions Options)
    : Opts(Options), Net(Loop, Options.Seed ^ 0x9e3779b9u) {
  GlobalEnv = Heap.allocEnv(nullptr);
  Interp = std::make_unique<js::Interpreter>(Heap, GlobalEnv);
  Interp->setHooks(this);
  Interp->setStepBudget(StepBudget);
  js::installStdLib(*Interp, Opts.Seed ^ 0xc0ffee);
  Heap.addRootProvider(this);
  installBindings(*this);
}

Browser::~Browser() { Heap.removeRootProvider(this); }

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

OpId Browser::newOperation(Operation Meta,
                           std::vector<std::pair<OpId, HbRule>> Preds) {
  OpId Op = Hb.addOperation(Meta);
  Sinks.onOperationCreated(Op, Hb.operation(Op));
  for (const auto &[Pred, Rule] : Preds) {
    if (Pred == InvalidOpId || Pred == Op)
      continue;
    Hb.addEdge(Pred, Op, Rule);
    Sinks.onHbEdge(Pred, Op, Rule);
  }
  return Op;
}

/// Which observability phase an operation's work bills to.
static obs::Phase phaseOf(OperationKind K) {
  switch (K) {
  case OperationKind::Bootstrap:
  case OperationKind::ParseElement:
    return obs::Phase::Parse;
  case OperationKind::ExecuteScript:
  case OperationKind::TimeoutCallback:
  case OperationKind::IntervalCallback:
  case OperationKind::ScriptSlice:
    return obs::Phase::Script;
  case OperationKind::EventHandler:
  case OperationKind::DispatchBegin:
  case OperationKind::DispatchEnd:
  case OperationKind::UserAction:
    return obs::Phase::Dispatch;
  }
  return obs::Phase::Script;
}

void Browser::beginOperation(OpId Op) {
  obs::Phase Ph = phaseOf(Hb.operation(Op).Kind);
  if (OpStack.empty()) {
    // Attribute the virtual-time advance since the last outermost
    // operation to the phase now observing it (deterministic: depends
    // only on the schedule, never on wall time).
    VirtualTime Now = Loop.now();
    if (Now > VirtualMark) {
      Phases.addVirtual(Ph, Now - VirtualMark);
      VirtualMark = Now;
    }
  }
  TimingStack.push_back({std::chrono::steady_clock::now(), 0, Ph});
  OpStack.push_back(Op);
  CrashFlagStack.push_back(false);
  Interp->resetSteps();
  Sinks.onOperationBegin(Op);
}

bool Browser::endOperation() {
  assert(!OpStack.empty() && "unbalanced endOperation");
  OpId Op = OpStack.back();
  bool Crashed = CrashFlagStack.back();
  OpStack.pop_back();
  CrashFlagStack.pop_back();
  TimingFrame Frame = TimingStack.back();
  TimingStack.pop_back();
  uint64_t Nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Frame.Start)
          .count());
  // Self time: nested operations already billed their share.
  Phases.addWall(Frame.Ph,
                 Nanos > Frame.ChildNanos ? Nanos - Frame.ChildNanos : 0);
  if (!TimingStack.empty())
    TimingStack.back().ChildNanos += Nanos;
  Sinks.onOperationEnd(Op, Crashed);
  ++OpsRun;
  if (OpStack.empty())
    Heap.maybeCollect(); // Only at operation boundaries (GC contract).
  return Crashed;
}

void Browser::noteCrash(const std::string &Message) {
  if (!CrashFlagStack.empty())
    CrashFlagStack.back() = true;
  Crashes.push_back(Message);
}

// ---------------------------------------------------------------------------
// Memory accesses
// ---------------------------------------------------------------------------

void Browser::recordAccessId(AccessKind Kind, AccessOrigin Origin, LocId Loc,
                             std::string Detail) {
  OpId Op = currentOp();
  if (Op == InvalidOpId)
    return; // Host bookkeeping outside any operation.
  Access A;
  A.Kind = Kind;
  A.Origin = Origin;
  A.Op = Op;
  A.Loc = Loc;
  A.Detail = std::move(Detail);
  Sinks.onMemoryAccess(A);
}

void Browser::recordAccess(AccessKind Kind, AccessOrigin Origin,
                           const Location &Loc, std::string Detail) {
  if (currentOp() == InvalidOpId)
    return; // Host bookkeeping outside any operation; don't intern.
  LocId Id = announceIntern([&] { return Interner.intern(Loc); });
  recordAccessId(Kind, Origin, Id, std::move(Detail));
}

void Browser::recordVarAccess(AccessKind Kind, AccessOrigin Origin,
                              ContainerId Container, std::string_view Name,
                              std::string Detail) {
  if (currentOp() == InvalidOpId)
    return;
  LocId Id = announceIntern([&] { return Interner.internVar(Container, Name); });
  recordAccessId(Kind, Origin, Id, std::move(Detail));
}

void Browser::recordHandlerAccess(AccessKind Kind, AccessOrigin Origin,
                                  NodeId Target, ContainerId TargetObject,
                                  std::string_view EventType,
                                  uint64_t HandlerId, std::string Detail) {
  if (currentOp() == InvalidOpId)
    return;
  LocId Id = announceIntern([&] {
    return Interner.internHandler(Target, TargetObject, EventType, HandlerId);
  });
  recordAccessId(Kind, Origin, Id, std::move(Detail));
}

void Browser::onVarRead(js::Env *Scope, std::string_view Name,
                        AccessOrigin Origin) {
  recordVarAccess(AccessKind::Read, Origin, Scope->containerId(), Name);
}

void Browser::onVarWrite(js::Env *Scope, std::string_view Name,
                         AccessOrigin Origin) {
  recordVarAccess(AccessKind::Write, Origin, Scope->containerId(), Name);
}

void Browser::onPropRead(js::Object *Obj, std::string_view Name,
                         AccessOrigin Origin) {
  recordVarAccess(AccessKind::Read, Origin, Obj->containerId(), Name);
}

void Browser::onPropWrite(js::Object *Obj, std::string_view Name,
                          AccessOrigin Origin) {
  recordVarAccess(AccessKind::Write, Origin, Obj->containerId(), Name);
}

// ---------------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------------

js::Object *Browser::wrapperFor(Node *N) {
  if (!N)
    return nullptr;
  auto It = Wrappers.find(N->id());
  if (It != Wrappers.end())
    return It->second;
  js::Object *W = Heap.allocObject();
  switch (N->kind()) {
  case NodeKind::Document:
    W->setHostClass(documentHostClass());
    break;
  case NodeKind::Element:
    W->setHostClass(elementHostClass());
    break;
  case NodeKind::Text:
    W->setHostClass(textHostClass());
    break;
  }
  W->setDomNode(N->id());
  W->setHostPtr(N);
  W->setHostInt(reinterpret_cast<uint64_t>(this));
  Wrappers[N->id()] = W;
  registerNode(N);
  return W;
}

Node *Browser::nodeFor(js::Object *Wrapper) const {
  if (!Wrapper || Wrapper->domNode() == InvalidNodeId)
    return nullptr;
  return static_cast<Node *>(Wrapper->hostPtr());
}

Window *Browser::windowForDocument(DocumentId Doc) {
  for (const auto &W : Windows)
    if (W->documentId() == Doc)
      return W.get();
  return nullptr;
}

Window *Browser::windowForObject(js::Object *O) {
  for (const auto &W : Windows)
    if (W->windowObject() == O || W->documentObject() == O)
      return W.get();
  return nullptr;
}

OpId Browser::creationOpOf(NodeId N) const {
  auto It = CreatedBy.find(N);
  return It == CreatedBy.end() ? InvalidOpId : It->second;
}

void Browser::recordElementInsertion(const std::vector<Element *> &Affected,
                                     bool Inserted) {
  AccessOrigin Origin =
      Inserted ? AccessOrigin::ElemInsert : AccessOrigin::ElemRemove;
  bool InOp = currentOp() != InvalidOpId;
  for (Element *E : Affected) {
    DocumentId Doc = E->ownerDocument()->documentId();
    auto ElemWrite = [&](ElemKeyKind K, NodeId N, std::string_view Key,
                         std::string Detail = std::string()) {
      if (!InOp)
        return;
      LocId Id =
          announceIntern([&] { return Interner.internElem(Doc, K, N, Key); });
      recordAccessId(AccessKind::Write, Origin, Id, std::move(Detail));
    };
    // The element's identity location.
    ElemWrite(ElemKeyKind::ByNode, E->id(), "", "<" + E->tagName() + ">");
    // Id- and tag-keyed locations collide with string lookups (this is
    // what makes a failed getElementById race with later insertion).
    std::string Id = E->idAttr();
    if (!Id.empty())
      ElemWrite(ElemKeyKind::ById, InvalidNodeId, Id, "#" + Id);
    std::string NameAttr = E->getAttribute("name");
    if (!NameAttr.empty())
      ElemWrite(ElemKeyKind::ByName, InvalidNodeId, NameAttr);
    ElemWrite(ElemKeyKind::ByTag, InvalidNodeId, E->tagName());
    // Sec. 4.1 "additional cases": parentNode / childNodes writes.
    recordVarAccess(AccessKind::Write, Origin, domContainer(E->id()),
                    "parentNode");
    if (Node *P = E->parent())
      recordVarAccess(AccessKind::Write, Origin, domContainer(P->id()),
                      strFormat("childNodes[%d]", P->indexOf(E)));
    registerNode(E);
    if (Inserted && !CreatedBy.count(E->id()) &&
        currentOp() != InvalidOpId)
      CreatedBy[E->id()] = currentOp();
  }
}

void Browser::recordLookup(DocumentId Doc, ElemKeyKind Kind,
                           std::string Key) {
  if (currentOp() == InvalidOpId)
    return;
  LocId Id = announceIntern(
      [&] { return Interner.internElem(Doc, Kind, InvalidNodeId, Key); });
  recordAccessId(AccessKind::Read, AccessOrigin::ElemLookup, Id);
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

std::string Browser::dispatchKeyOf(TargetKey Target,
                                   const std::string &Type) const {
  return strFormat("%u/%llu/%s", Target.Node,
                   static_cast<unsigned long long>(Target.Object),
                   Type.c_str());
}

void Browser::addListener(TargetKey Target, const std::string &Type,
                          js::Value Handler, bool Capture) {
  js::Object *F = Handler.objectOrNull();
  uint64_t HandlerId = F ? F->handlerIdentity() : 0;
  ListenerRecord Rec;
  Rec.Handler = std::move(Handler);
  Rec.HandlerId = HandlerId;
  Rec.Capture = Capture;
  ListenerMap[dispatchKeyOf(Target, Type)].Listeners.push_back(
      std::move(Rec));
  recordHandlerAccess(AccessKind::Write, AccessOrigin::HandlerInstall,
                      Target.Node, Target.Object, Type, HandlerId,
                      "addEventListener(" + Type + ")");
}

void Browser::removeListener(TargetKey Target, const std::string &Type,
                             js::Value Handler) {
  auto It = ListenerMap.find(dispatchKeyOf(Target, Type));
  if (It == ListenerMap.end())
    return;
  js::Object *F = Handler.objectOrNull();
  auto &Listeners = It->second.Listeners;
  for (size_t I = 0; I < Listeners.size(); ++I) {
    if (Listeners[I].Handler.objectOrNull() == F) {
      recordHandlerAccess(AccessKind::Write, AccessOrigin::HandlerRemove,
                          Target.Node, Target.Object, Type,
                          Listeners[I].HandlerId,
                          "removeEventListener(" + Type + ")");
      Listeners.erase(Listeners.begin() + static_cast<ptrdiff_t>(I));
      return;
    }
  }
}

void Browser::setSlotHandler(TargetKey Target, const std::string &Type,
                             js::Value Handler) {
  TargetListeners &TL = ListenerMap[dispatchKeyOf(Target, Type)];
  TL.Slot = std::move(Handler);
  TL.SlotIsAttrSource = false;
  TL.AttrSource.clear();
  recordHandlerAccess(AccessKind::Write, AccessOrigin::HandlerInstall,
                      Target.Node, Target.Object, Type, 0,
                      "on" + Type + " = ...");
}

void Browser::setSlotHandlerSource(TargetKey Target, const std::string &Type,
                                   std::string Source) {
  TargetListeners &TL = ListenerMap[dispatchKeyOf(Target, Type)];
  TL.Slot = js::Value();
  TL.SlotIsAttrSource = true;
  TL.AttrSource = std::move(Source);
  recordHandlerAccess(AccessKind::Write, AccessOrigin::HandlerInstall,
                      Target.Node, Target.Object, Type, 0,
                      "attr on" + Type);
}

js::Value Browser::slotHandler(TargetKey Target, const std::string &Type) {
  auto It = ListenerMap.find(dispatchKeyOf(Target, Type));
  if (It == ListenerMap.end())
    return js::Value::null();
  if (It->second.SlotIsAttrSource)
    return js::Value(It->second.AttrSource);
  return It->second.Slot;
}

bool Browser::hasRegisteredHandler(TargetKey Target,
                                   const std::string &Type) const {
  auto It = ListenerMap.find(dispatchKeyOf(Target, Type));
  if (It == ListenerMap.end())
    return false;
  const TargetListeners &TL = It->second;
  if (TL.SlotIsAttrSource && !TL.AttrSource.empty())
    return true;
  if (js::Object *F = TL.Slot.objectOrNull(); F && F->isCallable())
    return true;
  return !TL.Listeners.empty();
}

int Browser::dispatchCount(TargetKey Target, const std::string &Type) const {
  auto It = DispatchCountByKey.find(dispatchKeyOf(Target, Type));
  return It == DispatchCountByKey.end() ? 0 : It->second;
}

/// Does this event type propagate through ancestors (bubble)?
static bool eventBubbles(const std::string &Type) {
  static const char *const Bubbling[] = {
      "click",     "dblclick", "mousedown", "mouseup",  "mouseover",
      "mouseout",  "mousemove", "keydown",  "keyup",    "keypress",
      "input",     "change"};
  for (const char *T : Bubbling)
    if (Type == T)
      return true;
  return false;
}

OpId Browser::runHandlerOp(TargetKey Target, js::Object *CurrentTargetObj,
                           const std::string &Type, js::Value Handler,
                           uint64_t HandlerId, OpId Pred, OpTrigger Trigger,
                           int DispatchIndex) {
  Operation Meta;
  Meta.Kind = OperationKind::EventHandler;
  Meta.Subject = Target.Node;
  Meta.EventType = Type;
  Meta.DispatchIndex = DispatchIndex;
  Meta.Trigger = Trigger.Kind;
  Meta.TriggerKey = Trigger.Key;
  Meta.Label = strFormat("handler %s on node%u", Type.c_str(), Target.Node);
  OpId Op = newOperation(Meta, {{Pred, HbRule::RA_DispatchChain}});
  runOperation(Op, [&] {
    // Reading the handler location (Sec. 4.3 read accesses).
    TargetKey CurrentKey;
    if (Node *N = nodeFor(CurrentTargetObj))
      CurrentKey.Node = N->id();
    else if (CurrentTargetObj)
      CurrentKey.Object = CurrentTargetObj->containerId();
    ExecutedHandlerKeys.insert(dispatchKeyOf(CurrentKey, Type));
    recordHandlerAccess(AccessKind::Read, AccessOrigin::HandlerFire,
                        CurrentKey.Node, CurrentKey.Object, Type, HandlerId);
    js::Value ThisV =
        CurrentTargetObj ? js::Value(CurrentTargetObj) : js::Value::null();
    if (Handler.isString()) {
      runScriptSource(Handler.asString(),
                      strFormat("on%s@node%u", Type.c_str(), Target.Node),
                      ThisV);
    } else if (Handler.isObject() && Handler.asObject()->isCallable()) {
      // Build a minimal event object.
      js::Object *Event = Heap.allocObject();
      Event->setOwnProperty("type", js::Value(Type));
      if (js::Object *TargetObj =
              Target.Node != InvalidNodeId
                  ? Wrappers.count(Target.Node) ? Wrappers[Target.Node]
                                                : nullptr
                  : nullptr)
        Event->setOwnProperty("target", js::Value(TargetObj));
      invokeHandler(Handler, ThisV, {js::Value(Event)});
    }
  });
  return Op;
}

std::pair<OpId, OpId>
Browser::dispatchEvent(TargetKey Target, const std::string &Type,
                       std::vector<std::pair<OpId, HbRule>> ExtraBeginPreds,
                       OpTrigger Trigger) {
  std::string Key = dispatchKeyOf(Target, Type);
  int Index = DispatchCountByKey[Key]++;

  // Appendix A inline-dispatch splitting: remember the interrupted op.
  OpId InlineCaller = currentOp();

  std::vector<std::pair<OpId, HbRule>> BeginPreds = std::move(
      ExtraBeginPreds);
  if (Target.Node != InvalidNodeId) {
    if (OpId Create = creationOpOf(Target.Node); Create != InvalidOpId)
      BeginPreds.push_back({Create, HbRule::R8_TargetCreated});
  }
  if (auto It = LastDispatchEnd.find(Key); It != LastDispatchEnd.end())
    BeginPreds.push_back({It->second, HbRule::R9_DispatchOrder});
  if (InlineCaller != InvalidOpId)
    BeginPreds.push_back({InlineCaller, HbRule::RA_InlineSplit});

  Operation BeginMeta;
  BeginMeta.Kind = OperationKind::DispatchBegin;
  BeginMeta.Subject = Target.Node;
  BeginMeta.EventType = Type;
  BeginMeta.DispatchIndex = Index;
  BeginMeta.Trigger = Trigger.Kind;
  BeginMeta.TriggerKey = Trigger.Key;
  BeginMeta.Label = strFormat("disp%d(%s, node%u)", Index, Type.c_str(),
                              Target.Node);
  OpId Begin = newOperation(BeginMeta, std::move(BeginPreds));
  runOperation(Begin, [&] {
    // The browser reads the on<type> slot when dispatching - this read is
    // not explicit in any script (Sec. 2.5, Fig. 5).
    recordHandlerAccess(AccessKind::Read, AccessOrigin::HandlerFire,
                        Target.Node, Target.Object, Type, 0);
  });

  // Build the propagation path (capture -> at-target -> bubble).
  Node *TargetNode =
      Target.Node != InvalidNodeId ? nodeById(Target.Node) : nullptr;

  struct Stop {
    js::Object *CurrentTarget;
    TargetKey Key;
  };
  std::vector<Stop> CapturePath; // Top-down, excluding target.
  js::Object *TargetObj = nullptr;
  Window *TargetWindow = nullptr;
  if (TargetNode) {
    TargetObj = wrapperFor(TargetNode);
    TargetWindow =
        windowForDocument(TargetNode->ownerDocument()->documentId());
    std::vector<Node *> Ancestors;
    for (Node *Walk = TargetNode->parent(); Walk; Walk = Walk->parent())
      Ancestors.push_back(Walk);
    std::reverse(Ancestors.begin(), Ancestors.end()); // Top-down.
    if (TargetWindow)
      CapturePath.push_back(
          {TargetWindow->windowObject(),
           TargetKey{InvalidNodeId,
                     TargetWindow->windowObject()->containerId()}});
    for (Node *A : Ancestors)
      CapturePath.push_back({wrapperFor(A), TargetKey{A->id(), 0}});
  } else if (Target.Object != 0) {
    // Non-node target (window, XHR): find the object.
    for (const auto &W : Windows) {
      if (W->windowObject()->containerId() == Target.Object)
        TargetObj = W->windowObject();
      if (W->documentObject()->containerId() == Target.Object)
        TargetObj = W->documentObject();
    }
    if (!TargetObj)
      for (const js::Value &V : PinnedValues)
        if (js::Object *O = V.objectOrNull())
          if (O->containerId() == Target.Object)
            TargetObj = O;
  }

  // Collect the handler executions, in phase order.
  struct PlannedHandler {
    js::Object *CurrentTarget;
    TargetKey CurrentKey;
    js::Value Handler;
    uint64_t HandlerId;
  };
  std::vector<PlannedHandler> Plan;
  auto PlanListeners = [&](const TargetKey &K, js::Object *CurrentTarget,
                           bool CaptureOnly, bool BubbleOnly) {
    auto It = ListenerMap.find(dispatchKeyOf(K, Type));
    if (It == ListenerMap.end())
      return;
    // Slot handler first (at-target and bubble phases only).
    if (!CaptureOnly) {
      if (It->second.SlotIsAttrSource)
        Plan.push_back({CurrentTarget, K,
                        js::Value(It->second.AttrSource), 0});
      else if (It->second.Slot.isObject() &&
               It->second.Slot.asObject()->isCallable())
        Plan.push_back({CurrentTarget, K, It->second.Slot, 0});
    }
    for (const ListenerRecord &L : It->second.Listeners) {
      if (CaptureOnly && !L.Capture)
        continue;
      if (BubbleOnly && L.Capture)
        continue;
      Plan.push_back({CurrentTarget, K, L.Handler, L.HandlerId});
    }
  };

  for (const Stop &S : CapturePath)
    PlanListeners(S.Key, S.CurrentTarget, /*CaptureOnly=*/true,
                  /*BubbleOnly=*/false);
  PlanListeners(Target, TargetObj, /*CaptureOnly=*/false,
                /*BubbleOnly=*/false);
  if (eventBubbles(Type))
    for (size_t I = CapturePath.size(); I > 0; --I)
      PlanListeners(CapturePath[I - 1].Key, CapturePath[I - 1].CurrentTarget,
                    /*CaptureOnly=*/false, /*BubbleOnly=*/true);

  OpId Prev = Begin;
  for (const PlannedHandler &H : Plan)
    Prev = runHandlerOp(H.CurrentKey, H.CurrentTarget, Type, H.Handler,
                        H.HandlerId, Prev, Trigger, Index);

  // Default action: clicking a javascript: link runs its href.
  if (Type == "click" && TargetNode) {
    for (Node *Walk = TargetNode; Walk; Walk = Walk->parent()) {
      Element *E = dyn_cast<Element>(Walk);
      if (!E || E->tagName() != "a")
        continue;
      std::string Href = E->getAttribute("href");
      if (startsWithIgnoreCase(Href, "javascript:")) {
        Prev = runHandlerOp(TargetKey{E->id(), 0}, wrapperFor(E), Type,
                            js::Value(Href.substr(11)), 0, Prev, Trigger,
                            Index);
      }
      break;
    }
  }

  Operation EndMeta;
  EndMeta.Kind = OperationKind::DispatchEnd;
  EndMeta.Subject = Target.Node;
  EndMeta.EventType = Type;
  EndMeta.DispatchIndex = Index;
  EndMeta.Label = strFormat("disp%d(%s) end", Index, Type.c_str());
  OpId End = newOperation(EndMeta, {{Prev, HbRule::RA_DispatchChain}});
  runOperation(End, [] {});
  LastDispatchEnd[Key] = End;
  Sinks.onEventDispatch(Target.Node, Target.Object, Type, Index, Begin,
                        End);

  // Appendix A: resume the interrupted operation as a fresh slice ordered
  // after the inline dispatch.
  if (InlineCaller != InvalidOpId) {
    Operation SliceMeta;
    SliceMeta.Kind = OperationKind::ScriptSlice;
    SliceMeta.Label =
        strFormat("slice after disp(%s) of op %u", Type.c_str(),
                  InlineCaller);
    OpId Slice = newOperation(
        SliceMeta, {{InlineCaller, HbRule::RA_InlineSplit},
                    {End, HbRule::RA_InlineSplit}});
    Sinks.onOperationEnd(InlineCaller, false);
    OpStack.back() = Slice;
    Sinks.onOperationBegin(Slice);
  }
  return {Begin, End};
}

// ---------------------------------------------------------------------------
// Timers (rules 16/17)
// ---------------------------------------------------------------------------

/// Logical location of one timer's registration slot (for clear* races).
static EventHandlerLoc timerLoc(uint64_t TimerId) {
  return EventHandlerLoc{InvalidNodeId, TimerContainerBit | TimerId,
                         "timer", 0};
}

uint64_t Browser::setTimeout(js::Value Callback, VirtualTime DelayMs) {
  uint64_t Id = NextTimerId++;
  TimerRecord Rec;
  Rec.Id = Id;
  Rec.Callback = std::move(Callback);
  Rec.Delay = DelayMs;
  Rec.Interval = false;
  Rec.CreatorOp = currentOp();
  Timers[Id] = Rec;
  if (Opts.InstrumentTimerClears)
    recordAccess(AccessKind::Write, AccessOrigin::HandlerInstall,
                 timerLoc(Id), "setTimeout");
  Timers[Id].Task = Loop.scheduleAfter(DelayMs * 1000, [this, Id] {
    auto It = Timers.find(Id);
    if (It == Timers.end() || It->second.Cancelled)
      return;
    TimerRecord Rec = It->second;
    Operation Meta;
    Meta.Kind = OperationKind::TimeoutCallback;
    Meta.Trigger = TriggerKind::Timer;
    Meta.TriggerKey = strFormat("timer:%llu",
                                static_cast<unsigned long long>(Id));
    Meta.Label = strFormat("cb(timer %llu, %llums)",
                           static_cast<unsigned long long>(Id),
                           static_cast<unsigned long long>(Rec.Delay));
    OpId Op = newOperation(Meta,
                           {{Rec.CreatorOp, HbRule::R16_SetTimeout}});
    runOperation(Op, [&] {
      if (Opts.InstrumentTimerClears)
        recordAccess(AccessKind::Read, AccessOrigin::HandlerFire,
                     timerLoc(Id), "timer fired");
      if (Rec.Callback.isString())
        runScriptSource(Rec.Callback.asString(), Meta.TriggerKey);
      else
        invokeHandler(Rec.Callback, js::Value(), {});
    });
    Timers.erase(Id);
  });
  return Id;
}

uint64_t Browser::setInterval(js::Value Callback, VirtualTime DelayMs) {
  uint64_t Id = NextTimerId++;
  TimerRecord Rec;
  Rec.Id = Id;
  Rec.Callback = std::move(Callback);
  Rec.Delay = DelayMs == 0 ? 1 : DelayMs;
  Rec.Interval = true;
  Rec.CreatorOp = currentOp();
  Timers[Id] = Rec;

  // Self-rescheduling firing function.
  struct Fire {
    Browser *B;
    uint64_t Id;
    void operator()() const {
      auto It = B->Timers.find(Id);
      if (It == B->Timers.end() || It->second.Cancelled)
        return;
      TimerRecord &Rec = It->second;
      Operation Meta;
      Meta.Kind = OperationKind::IntervalCallback;
      Meta.DispatchIndex = Rec.Index;
      Meta.Trigger = TriggerKind::Timer;
      Meta.TriggerKey = strFormat("interval:%llu",
                                  static_cast<unsigned long long>(Id));
      Meta.Label = strFormat("cb%d(interval %llu)", Rec.Index,
                             static_cast<unsigned long long>(Id));
      // Rule 17: creator -> cb0; cb_i -> cb_{i+1}.
      std::vector<std::pair<OpId, HbRule>> Preds;
      if (Rec.Index == 0)
        Preds.push_back({Rec.CreatorOp, HbRule::R17_SetInterval});
      else
        Preds.push_back({Rec.LastCallbackOp, HbRule::R17_SetInterval});
      OpId Op = B->newOperation(Meta, std::move(Preds));
      js::Value Callback = Rec.Callback;
      B->runOperation(Op, [&] {
        if (B->Opts.InstrumentTimerClears)
          B->recordAccess(AccessKind::Read, AccessOrigin::HandlerFire,
                          timerLoc(Id), "interval fired");
        if (Callback.isString())
          B->runScriptSource(Callback.asString(), Meta.TriggerKey);
        else
          B->invokeHandler(Callback, js::Value(), {});
      });
      // Re-find: the callback may have cleared the interval.
      auto It2 = B->Timers.find(Id);
      if (It2 == B->Timers.end() || It2->second.Cancelled) {
        B->Timers.erase(Id);
        return;
      }
      It2->second.LastCallbackOp = Op;
      It2->second.Index++;
      It2->second.Task =
          B->Loop.scheduleAfter(It2->second.Delay * 1000, Fire{B, Id});
    }
  };
  Timers[Id].Task = Loop.scheduleAfter(Rec.Delay * 1000, Fire{this, Id});
  return Id;
}

void Browser::clearTimer(uint64_t TimerId) {
  if (TimerId == 0 || TimerId >= NextTimerId)
    return; // Never a real timer; clearTimeout(garbage) is a no-op.
  // The clear is a write on the timer's slot even when the callback has
  // already fired - that is exactly the racing case (Sec. 7).
  if (Opts.InstrumentTimerClears)
    recordAccess(AccessKind::Write, AccessOrigin::HandlerRemove,
                 timerLoc(TimerId), "clearTimeout/clearInterval");
  auto It = Timers.find(TimerId);
  if (It == Timers.end())
    return;
  It->second.Cancelled = true;
  Loop.cancel(It->second.Task);
}

// ---------------------------------------------------------------------------
// XHR (rule 10)
// ---------------------------------------------------------------------------

void Browser::xhrSend(js::Object *Xhr) {
  pinValue(js::Value(Xhr));
  const js::Value *UrlV = Xhr->findOwnProperty("__url");
  std::string Url = UrlV && UrlV->isString() ? UrlV->asString() : "";
  OpId SendOp = currentOp();
  Net.fetch(Url, [this, Xhr, SendOp, Url](const FetchResult &R) {
    std::vector<std::pair<OpId, HbRule>> Preds;
    if (Opts.EnableAjaxHbEdges && SendOp != InvalidOpId)
      Preds.push_back({SendOp, HbRule::R10_AjaxSend});
    OpTrigger Trigger{TriggerKind::Network, Url};
    // State updates happen as part of the dispatch; handlers observe
    // readyState 4.
    Xhr->setOwnProperty("readyState", js::Value(4.0));
    Xhr->setOwnProperty("status", js::Value(R.Ok ? 200.0 : 404.0));
    Xhr->setOwnProperty("responseText", js::Value(R.Body));
    dispatchEvent(TargetKey{InvalidNodeId, Xhr->containerId()},
                  "readystatechange", std::move(Preds), Trigger);
  });
}

// ---------------------------------------------------------------------------
// Script execution
// ---------------------------------------------------------------------------

const js::Program *Browser::compile(const std::string &Source,
                                    const std::string &OriginTag) {
  auto Cached = CompileCache.find(Source);
  if (Cached != CompileCache.end())
    return Cached->second;
  js::ParseResult R = js::Parser::parseProgram(Source);
  if (!R.ok()) {
    std::string Message =
        strFormat("%s: syntax error: %s", OriginTag.c_str(),
                  R.Diags.empty() ? "?" : R.Diags[0].Message.c_str());
    ParseErrors.push_back(Message);
    CompileCache[Source] = nullptr;
    return nullptr;
  }
  CompiledScripts.push_back(std::move(R.Ast));
  const js::Program *P = CompiledScripts.back().get();
  CompileCache[Source] = P;
  return P;
}

void Browser::runScriptSource(const std::string &Source,
                              const std::string &OriginTag,
                              js::Value ThisV) {
  const js::Program *P = compile(Source, OriginTag);
  if (!P)
    return;
  js::Completion C = Interp->runProgramWithThis(*P, std::move(ThisV));
  if (C.isThrow())
    noteCrash(strFormat("%s: uncaught %s", OriginTag.c_str(),
                        js::toDisplayString(C.V).c_str()));
}

void Browser::invokeHandler(js::Value Handler, js::Value ThisV,
                            std::vector<js::Value> Args) {
  js::Completion C =
      Interp->callFunction(std::move(Handler), std::move(ThisV),
                           std::move(Args));
  if (C.isThrow())
    noteCrash(strFormat("handler: uncaught %s",
                        js::toDisplayString(C.V).c_str()));
}

// ---------------------------------------------------------------------------
// Page loading
// ---------------------------------------------------------------------------

Window *Browser::createWindow(Window *Parent, Element *FrameElem) {
  Windows.push_back(
      std::make_unique<Window>(*this, NextDocId++, Parent, FrameElem));
  Window *W = Windows.back().get();
  installWindowObjects(*this, *W);
  if (!Parent) {
    // Main window: its objects become the JS globals.
    GlobalEnv->define("window", js::Value(W->windowObject()));
    GlobalEnv->define("document", js::Value(W->documentObject()));
    Interp->setGlobalThis(js::Value(W->windowObject()));
  }
  return W;
}

void Browser::loadPage(const std::string &Url) {
  assert(Windows.empty() && "loadPage must be called once per browser");
  Operation Meta;
  Meta.Kind = OperationKind::Bootstrap;
  Meta.Label = "load " + Url;
  BootstrapOp = newOperation(Meta, {});
  Window *W = createWindow(nullptr, nullptr);
  W->ParseChainTail = BootstrapOp;
  startWindowLoad(*W, Url);
}

void Browser::startWindowLoad(Window &W, const std::string &Url) {
  Net.fetch(Url, [this, &W](const FetchResult &R) {
    W.Parser = std::make_unique<html::HtmlParser>(
        W.document(), R.Ok ? R.Body : std::string());
    pumpParser(W);
  });
}

void Browser::pumpParser(Window &W) {
  while (!W.ParserSuspended) {
    html::ParseStep Step = W.Parser->pump();
    switch (Step.StepKind) {
    case html::ParseStep::Kind::ElementOpened: {
      Operation Meta;
      Meta.Kind = OperationKind::ParseElement;
      Meta.Doc = W.documentId();
      Meta.Subject = Step.Elem->id();
      std::string Id = Step.Elem->idAttr();
      Meta.Label = "parse <" + Step.Elem->tagName() +
                   (Id.empty() ? "" : "#" + Id) + ">";
      // Rule 1a chain (or rule 6 from the iframe's parse op for the first
      // element of a nested document).
      OpId Op = newOperation(
          Meta, {{W.ParseChainTail,
                  W.ParentWindow && W.ParseChainTail ==
                                        creationOpOf(W.FrameElem->id())
                      ? HbRule::R6_FrameCreate
                      : HbRule::R1a_ParseOrder}});
      W.ParseChainTail = Op;
      Element *E = Step.Elem;
      runOperation(Op, [&] { handleParsedElement(W, E, Op); });
      break;
    }
    case html::ParseStep::Kind::ScriptComplete:
      handleScriptComplete(W, Step.Elem, std::move(Step.Text));
      break;
    case html::ParseStep::Kind::ElementClosed:
    case html::ParseStep::Kind::TextAdded:
      break;
    case html::ParseStep::Kind::Finished:
      onStaticParsingDone(W);
      return;
    }
    // With a per-step cost, yield to the event loop between steps so
    // asynchronous work (timers, arrivals, user actions in replay)
    // interleaves with parsing.
    if (Opts.ParseStepCost > 0 && !W.ParserSuspended) {
      Loop.scheduleAfter(Opts.ParseStepCost,
                         [this, &W] { pumpParser(W); });
      return;
    }
  }
}

void Browser::handleParsedElement(Window &W, Element *E, OpId ParseOp) {
  CreatedBy[E->id()] = ParseOp;
  registerNode(E);
  recordElementInsertion({E}, /*Inserted=*/true);

  // Event-handler content attributes (Sec. 4.3 write accesses).
  for (const Attribute &A : E->attributes()) {
    if (!startsWith(A.Name, "on") || A.Name.size() <= 2)
      continue;
    std::string Type = A.Name.substr(2);
    // <body onload=...> registers on the window (classic HTML semantics).
    TargetKey Key{E->id(), 0};
    if (E == W.document().body() && (Type == "load" || Type == "unload"))
      Key = TargetKey{InvalidNodeId, W.windowObject()->containerId()};
    TargetListeners &TL = ListenerMap[dispatchKeyOf(Key, Type)];
    TL.SlotIsAttrSource = true;
    TL.AttrSource = A.Value;
    recordHandlerAccess(AccessKind::Write, AccessOrigin::HandlerInstall,
                        Key.Node, Key.Object, Type, 0, "attr on" + Type);
  }

  // Form fields: the value attribute initializes the field's value.
  if (E->tagName() == "input" || E->tagName() == "textarea") {
    if (E->hasAttribute("value")) {
      E->setFormValue(E->getAttribute("value"));
      recordVarAccess(AccessKind::Write, AccessOrigin::FormFieldWrite,
                      domContainer(E->id()), "value", "value attribute");
    }
  }

  if (E->tagName() == "img" && E->hasAttribute("src"))
    startImageLoad(W, E, ParseOp);
  if (E->tagName() == "iframe")
    startFrameLoad(W, E, ParseOp);
}

void Browser::executeScriptElement(
    Window &W, Element *Script, const std::string &Body,
    std::vector<std::pair<OpId, HbRule>> Preds, OpTrigger Trigger) {
  Operation Meta;
  Meta.Kind = OperationKind::ExecuteScript;
  Meta.Doc = W.documentId();
  Meta.Subject = Script->id();
  std::string Src = Script->getAttribute("src");
  Meta.Label = "exe <script" + (Src.empty() ? "" : " src=" + Src) + ">";
  Meta.Trigger = Trigger.Kind;
  Meta.TriggerKey = Trigger.Key;
  OpId Op = newOperation(Meta, std::move(Preds));
  runOperation(Op, [&] {
    runScriptSource(Body, Meta.Label);
  });
  // Record for rule 3 consumers.
  LastScriptExeOp = Op;
}

void Browser::fireElementLoad(Window &W, Element *E, OpId ExeOp,
                              OpTrigger Trigger) {
  std::vector<std::pair<OpId, HbRule>> Preds;
  if (ExeOp != InvalidOpId)
    Preds.push_back({ExeOp, HbRule::R3_ExeBeforeLoad});
  auto [Begin, End] =
      dispatchEvent(TargetKey{E->id(), 0}, "load", std::move(Preds),
                    Trigger);
  (void)Begin;
  if (!W.LoadFired)
    W.ElemLoadEnds.push_back(End);
  LastElemLoadEnd = End;
}

void Browser::handleScriptComplete(Window &W, Element *Script,
                                   std::string InlineBody) {
  html::ScriptKind Kind = html::classifyScript(Script);
  OpId CreateOp = creationOpOf(Script->id());
  std::string Src = Script->getAttribute("src");

  switch (Kind) {
  case html::ScriptKind::Inline: {
    executeScriptElement(W, Script, InlineBody,
                         {{CreateOp, HbRule::R2_CreateBeforeExe},
                          {W.ParseChainTail, HbRule::R1b_InlineScript}},
                         OpTrigger());
    // Rule 1b: the inline exe precedes the next parse.
    W.ParseChainTail = LastScriptExeOp;
    return;
  }
  case html::ScriptKind::SyncExternal: {
    W.ParserSuspended = true;
    Net.fetch(Src, [this, &W, Script, CreateOp,
                    Src](const FetchResult &R) {
      if (R.Ok) {
        OpTrigger Trigger{TriggerKind::Network, Src};
        executeScriptElement(W, Script, R.Body,
                             {{CreateOp, HbRule::R2_CreateBeforeExe},
                              {W.ParseChainTail,
                               HbRule::R1a_ParseOrder}},
                             Trigger);
        fireElementLoad(W, Script, LastScriptExeOp, Trigger);
        // Rule 1c: ld(sync script) precedes the next parse.
        W.ParseChainTail = LastElemLoadEnd;
      }
      W.ParserSuspended = false;
      pumpParser(W);
    });
    return;
  }
  case html::ScriptKind::AsyncExternal: {
    if (!W.LoadFired)
      ++W.PendingLoads;
    Net.fetch(Src, [this, &W, Script, CreateOp,
                    Src](const FetchResult &R) {
      if (R.Ok) {
        OpTrigger Trigger{TriggerKind::Network, Src};
        executeScriptElement(W, Script, R.Body,
                             {{CreateOp, HbRule::R2_CreateBeforeExe}},
                             Trigger);
        fireElementLoad(W, Script, LastScriptExeOp, Trigger);
      }
      notePendingLoadDone(W);
    });
    return;
  }
  case html::ScriptKind::DeferredExternal: {
    if (!W.LoadFired)
      ++W.PendingLoads;
    W.Deferred.push_back({Script, false, false, ""});
    size_t Index = W.Deferred.size() - 1;
    Net.fetch(Src, [this, &W, Index](const FetchResult &R) {
      W.Deferred[Index].Arrived = true;
      W.Deferred[Index].Body = R.Ok ? R.Body : std::string();
      tryRunDeferred(W);
    });
    return;
  }
  }
}

void Browser::startImageLoad(Window &W, Element *Img, OpId CreateOp) {
  (void)CreateOp;
  if (Img->hasAttribute("__load_started"))
    return; // One load per image element.
  Img->setAttribute("__load_started", "1");
  bool Blocks = !W.LoadFired;
  if (Blocks)
    ++W.PendingLoads;
  std::string Src = Img->getAttribute("src");
  Net.fetch(Src, [this, &W, Img, Src, Blocks](const FetchResult &R) {
    OpTrigger Trigger{TriggerKind::Network, Src};
    if (R.Ok) {
      fireElementLoad(W, Img, InvalidOpId, Trigger);
    } else {
      dispatchEvent(TargetKey{Img->id(), 0}, "error", {}, Trigger);
    }
    if (Blocks)
      notePendingLoadDone(W);
  });
}

void Browser::startFrameLoad(Window &W, Element *Frame, OpId CreateOp) {
  if (!W.LoadFired)
    ++W.PendingLoads;
  Window *Nested = createWindow(&W, Frame);
  // Rule 6: create(I) happens-before every create(E) in the nested
  // document; the nested parse chain starts at the iframe's parse op.
  Nested->ParseChainTail = CreateOp;
  std::string Src = Frame->getAttribute("src");
  startWindowLoad(*Nested, Src);
}

void Browser::onStaticParsingDone(Window &W) {
  W.ParsingDone = true;
  tryRunDeferred(W);
}

void Browser::tryRunDeferred(Window &W) {
  if (!W.ParsingDone || W.DclFired)
    return;
  bool First = true;
  for (auto &D : W.Deferred) {
    if (D.Executed) {
      First = false;
      continue;
    }
    if (!D.Arrived)
      return; // Rule 5: deferred scripts run in syntactic order.
    OpTrigger Trigger{TriggerKind::Network, D.Elem->getAttribute("src")};
    executeScriptElement(
        W, D.Elem, D.Body,
        {{creationOpOf(D.Elem->id()), HbRule::R2_CreateBeforeExe},
         {W.ParseChainTail, First ? HbRule::R4_CreateBeforeDefer
                                  : HbRule::R5_DeferOrder}},
        Trigger);
    fireElementLoad(W, D.Elem, LastScriptExeOp, Trigger);
    W.ParseChainTail = LastElemLoadEnd;
    D.Executed = true;
    First = false;
    notePendingLoadDone(W);
    if (W.DclFired)
      return; // A deferred script may have forced quiescence changes.
  }
  fireDomContentLoaded(W);
}

void Browser::fireDomContentLoaded(Window &W) {
  if (W.DclFired)
    return;
  W.DclFired = true;
  // Rules 12/13/14 arrive through the parse/execute chain tail.
  auto [Begin, End] = dispatchEvent(
      TargetKey{W.document().id(), 0}, "DOMContentLoaded",
      {{W.ParseChainTail, HbRule::R12_ParseBeforeDcl}});
  (void)Begin;
  W.DclEndOp = End;
  tryFireWindowLoad(W);
}

void Browser::notePendingLoadDone(Window &W) {
  if (W.PendingLoads > 0)
    --W.PendingLoads;
  tryFireWindowLoad(W);
}

void Browser::tryFireWindowLoad(Window &W) {
  if (!W.DclFired || W.LoadFired || W.PendingLoads > 0)
    return;
  W.LoadFired = true;
  std::vector<std::pair<OpId, HbRule>> Preds;
  Preds.push_back({W.DclEndOp, HbRule::R11_DclBeforeLoad});
  for (OpId E : W.ElemLoadEnds) // Rule 15.
    Preds.push_back({E, HbRule::R15_ElemLoadBeforeWindowLoad});
  auto [Begin, End] = dispatchEvent(
      TargetKey{InvalidNodeId, W.windowObject()->containerId()}, "load",
      std::move(Preds));
  (void)Begin;
  W.LoadEndOp = End;

  if (W.ParentWindow && W.FrameElem) {
    // Rule 7: ld(nested window) happens-before ld(iframe element).
    Window &Parent = *W.ParentWindow;
    std::vector<std::pair<OpId, HbRule>> FramePreds = {
        {End, HbRule::R7_FrameLoad}};
    auto [FB, FE] = dispatchEvent(TargetKey{W.FrameElem->id(), 0}, "load",
                                  std::move(FramePreds));
    (void)FB;
    if (!Parent.LoadFired)
      Parent.ElemLoadEnds.push_back(FE);
    notePendingLoadDone(Parent);
  }
}

// ---------------------------------------------------------------------------
// Dynamic insertion (script-inserted scripts/images/iframes)
// ---------------------------------------------------------------------------

void Browser::handleDynamicInsertion(Window &W, Element *E) {
  if (E->tagName() == "script") {
    std::string Src = E->getAttribute("src");
    if (!Src.empty()) {
      // External script-inserted scripts load and run asynchronously
      // (Sec. 3.1); only rules 2 and 15 order them.
      OpId CreateOp = creationOpOf(E->id());
      if (!W.LoadFired)
        ++W.PendingLoads;
      Net.fetch(Src, [this, &W, E, CreateOp, Src](const FetchResult &R) {
        if (R.Ok) {
          OpTrigger Trigger{TriggerKind::Network, Src};
          executeScriptElement(W, E, R.Body,
                               {{CreateOp, HbRule::R2_CreateBeforeExe}},
                               Trigger);
          fireElementLoad(W, E, LastScriptExeOp, Trigger);
        }
        notePendingLoadDone(W);
      });
    } else {
      // Script-inserted inline scripts run synchronously, not as a new
      // operation (Sec. 3.3, rule 2 note).
      std::string Body;
      for (Node *Child : E->children())
        if (const Text *T = dyn_cast<Text>(Child))
          Body += T->data();
      if (!Body.empty())
        runScriptSource(Body, "inserted inline script");
    }
    return;
  }
  if (E->tagName() == "img" && E->hasAttribute("src")) {
    startImageLoad(W, E, creationOpOf(E->id()));
    return;
  }
  if (E->tagName() == "iframe") {
    startFrameLoad(W, E, creationOpOf(E->id()));
    return;
  }
}

// ---------------------------------------------------------------------------
// User simulation
// ---------------------------------------------------------------------------

void Browser::userClick(Element *Target) {
  OpTrigger Trigger{TriggerKind::User,
                    strFormat("click@node%u", Target->id())};
  dispatchEvent(TargetKey{Target->id(), 0}, "click", {}, Trigger);
}

void Browser::userEvent(Element *Target, const std::string &Type) {
  OpTrigger Trigger{TriggerKind::User,
                    strFormat("%s@node%u", Type.c_str(), Target->id())};
  dispatchEvent(TargetKey{Target->id(), 0}, Type, {}, Trigger);
}

void Browser::userType(Element *Target, const std::string &Text) {
  OpTrigger Trigger{TriggerKind::User,
                    strFormat("type@node%u", Target->id())};
  dispatchEvent(TargetKey{Target->id(), 0}, "focus", {}, Trigger);
  dispatchEvent(TargetKey{Target->id(), 0}, "keydown", {}, Trigger);

  // The typed text becomes a write of the field's value (the paper's
  // input-mirror handler makes exactly this access visible, Sec. 5.2.2).
  Operation Meta;
  Meta.Kind = OperationKind::UserAction;
  Meta.Subject = Target->id();
  Meta.Trigger = TriggerKind::User;
  Meta.TriggerKey = Trigger.Key;
  Meta.Label = strFormat("user types into node%u", Target->id());
  OpId Op = newOperation(Meta, {});
  runOperation(Op, [&] {
    recordVarAccess(AccessKind::Write, AccessOrigin::UserInput,
                    domContainer(Target->id()), "value",
                    "user typed \"" + Text + "\"");
    Target->setFormValue(Text);
  });

  dispatchEvent(TargetKey{Target->id(), 0}, "input", {}, Trigger);
  dispatchEvent(TargetKey{Target->id(), 0}, "keyup", {}, Trigger);
}

// ---------------------------------------------------------------------------
// GC roots
// ---------------------------------------------------------------------------

void Browser::traceRoots(js::GcTracer &T) {
  T.trace(GlobalEnv);
  for (const auto &[NodeId, Wrapper] : Wrappers)
    T.trace(Wrapper);
  for (const auto &W : Windows) {
    T.trace(W->windowObject());
    T.trace(W->documentObject());
  }
  for (const auto &[Key, TL] : ListenerMap) {
    T.trace(TL.Slot);
    for (const ListenerRecord &L : TL.Listeners)
      T.trace(L.Handler);
  }
  for (const auto &[Id, Timer] : Timers)
    T.trace(Timer.Callback);
  for (const js::Value &V : PinnedValues)
    T.trace(V);
}
