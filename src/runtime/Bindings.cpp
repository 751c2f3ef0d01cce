//===- runtime/Bindings.cpp - DOM/BOM host classes ---------------------------===//

#include "runtime/Bindings.h"

#include "runtime/Browser.h"
#include "support/Format.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cmath>

using namespace wr;
using namespace wr::rt;
using js::Completion;
using js::HostClass;
using js::Interpreter;
using js::Object;
using js::Value;

namespace {

Browser &browserOf(Object *Self) {
  return *reinterpret_cast<Browser *>(Self->hostInt());
}

Value arg(const std::vector<Value> &Args, size_t I) {
  return I < Args.size() ? Args[I] : Value();
}

/// Allocates a host method bound to nothing; it recovers its receiver
/// from ThisV at call time.
Value method(Interpreter &I, const char *Name, js::HostFn Fn) {
  return Value(I.heap().allocHostFunction(std::move(Fn), Name));
}

Element *selfElement(Interpreter &, Object *Self) {
  Browser &B = browserOf(Self);
  return dyn_cast<Element>(B.nodeFor(Self));
}

/// Parses a style="a: b; c: d" attribute into hidden __style_* attributes
/// the style object reads/writes.
void ensureStyleParsed(Element *E) {
  if (E->hasAttribute("__style_parsed"))
    return;
  E->setAttribute("__style_parsed", "1");
  for (const std::string &Decl : split(E->getAttribute("style"), ';')) {
    size_t Colon = Decl.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string Prop(trim(std::string_view(Decl).substr(0, Colon)));
    std::string Val(trim(std::string_view(Decl).substr(Colon + 1)));
    if (!Prop.empty())
      E->setAttribute("__style_" + toLower(Prop), Val);
  }
}

/// Serializes an element's children (innerHTML getter).
void serializeChildren(const Node *N, std::string &Out) {
  for (const Node *Child : N->children()) {
    if (const Text *T = dyn_cast<Text>(Child)) {
      Out += T->data();
      continue;
    }
    const Element *E = cast<Element>(Child);
    Out += "<" + E->tagName();
    for (const Attribute &A : E->attributes()) {
      if (startsWith(A.Name, "__style_"))
        continue;
      Out += " " + A.Name + "=\"" + A.Value + "\"";
    }
    Out += ">";
    if (!E->isVoidTag()) {
      serializeChildren(E, Out);
      Out += "</" + E->tagName() + ">";
    }
  }
}

/// Shared implementation of appendChild/insertBefore on any node wrapper.
Completion insertChildImpl(Interpreter &I, Object *Self,
                           const Value &ChildV, const Value &RefV,
                           bool HasRef) {
  Browser &B = browserOf(Self);
  Node *Parent = B.nodeFor(Self);
  Node *Child = ChildV.isObject() ? B.nodeFor(ChildV.asObject()) : nullptr;
  if (!Parent || !Child)
    return I.throwError("TypeError", "parameter is not a Node");
  Node *Ref = nullptr;
  if (HasRef && !RefV.isNullish()) {
    Ref = RefV.isObject() ? B.nodeFor(RefV.asObject()) : nullptr;
    if (!Ref)
      return I.throwError("TypeError", "reference is not a Node");
  }
  Document *Doc = Parent->ownerDocument()
                      ? Parent->ownerDocument()
                      : dyn_cast<Document>(Parent);
  if (!Doc)
    return I.throwError("TypeError", "node has no document");
  MutationResult R = Doc->insertBefore(Parent, Child, Ref);
  if (!R.Ok)
    return I.throwError("HierarchyRequestError", R.Error);
  B.recordElementInsertion(R.AffectedElements, /*Inserted=*/true);
  if (Child->inDocument()) {
    Window *W = B.windowForDocument(Doc->documentId());
    if (W)
      for (Element *E : R.AffectedElements)
        B.handleDynamicInsertion(*W, E);
  }
  return Completion::normal(ChildV);
}

// ---------------------------------------------------------------------------
// Element host class
// ---------------------------------------------------------------------------

class ElementClass final : public HostClass {
public:
  const char *name() const override { return "HTMLElement"; }

  bool hostGet(Interpreter &I, Object *Self, const std::string &Name,
               Value &Out) override {
    Browser &B = browserOf(Self);
    Element *E = selfElement(I, Self);
    if (!E)
      return false;
    NodeId N = E->id();
    DocumentId D = E->ownerDocument()->documentId();

    // --- State properties -------------------------------------------------
    if (Name == "value") {
      B.recordVarAccess(AccessKind::Read, AccessOrigin::FormFieldRead,
                        Browser::domContainer(N), "value");
      Out = Value(E->formValue());
      return true;
    }
    if (Name == "checked") {
      B.recordVarAccess(AccessKind::Read, AccessOrigin::FormFieldRead,
                        Browser::domContainer(N), "checked");
      Out = Value(E->isChecked());
      return true;
    }
    if (Name == "id") {
      Out = Value(E->idAttr());
      return true;
    }
    if (Name == "tagName" || Name == "nodeName") {
      std::string Tag = E->tagName();
      for (char &C : Tag)
        C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
      Out = Value(Tag);
      return true;
    }
    if (Name == "parentNode" || Name == "parentElement") {
      B.recordVarAccess(AccessKind::Read, AccessOrigin::Plain,
                        Browser::domContainer(N), "parentNode");
      Node *P = E->parent();
      Out = P ? Value(B.wrapperFor(P)) : Value::null();
      return true;
    }
    if (Name == "childNodes" || Name == "children") {
      B.recordVarAccess(AccessKind::Read, AccessOrigin::Plain,
                        Browser::domContainer(N), "childNodes");
      Object *Arr = I.heap().allocArray();
      for (Node *Child : E->children()) {
        if (Name == "children" && !isa<Element>(Child))
          continue;
        Arr->elements().push_back(Value(B.wrapperFor(Child)));
      }
      Out = Value(Arr);
      return true;
    }
    if (Name == "firstChild" || Name == "lastChild") {
      B.recordVarAccess(AccessKind::Read, AccessOrigin::Plain,
                        Browser::domContainer(N), "childNodes");
      const auto &Kids = E->children();
      if (Kids.empty())
        Out = Value::null();
      else
        Out = Value(
            B.wrapperFor(Name == "firstChild" ? Kids.front() : Kids.back()));
      return true;
    }
    if (Name == "style") {
      ensureStyleParsed(E);
      // One style object per element, cached as a hidden own property.
      if (Value *Cached = Self->findOwnProperty("__styleobj")) {
        Out = *Cached;
        return true;
      }
      Object *Style = I.heap().allocObject();
      Style->setHostClass(styleHostClass());
      Style->setHostInt(Self->hostInt());
      Style->setHostPtr(E);
      Style->setDomNode(N);
      Self->setOwnProperty("__styleobj", Value(Style));
      Out = Value(Style);
      return true;
    }
    if (Name == "innerHTML") {
      B.recordAccess(AccessKind::Read, AccessOrigin::ElemLookup,
                     HtmlElemLoc{D, ElemKeyKind::ByNode, N, ""});
      std::string Html;
      serializeChildren(E, Html);
      Out = Value(std::move(Html));
      return true;
    }
    if (Name == "src" || Name == "href" || Name == "name" ||
        Name == "type" || Name == "title" || Name == "alt" ||
        Name == "rel" || Name == "action" || Name == "method") {
      B.recordVarAccess(AccessKind::Read, AccessOrigin::Plain,
                        Browser::domContainer(N), Name);
      Out = Value(E->getAttribute(Name));
      return true;
    }
    if (Name == "className") {
      Out = Value(E->getAttribute("class"));
      return true;
    }
    if (Name == "disabled") {
      Out = Value(E->hasAttribute("disabled"));
      return true;
    }
    if (Name == "ownerDocument") {
      Out = Value(B.wrapperFor(E->ownerDocument()));
      return true;
    }
    if (Name == "offsetWidth" || Name == "offsetHeight" ||
        Name == "clientWidth" || Name == "clientHeight" ||
        Name == "scrollTop" || Name == "scrollLeft") {
      Out = Value(0.0);
      return true;
    }
    if (Name == "complete") { // img.complete
      Out = Value(true);
      return true;
    }
    // on<type> handler slots (Sec. 4.3).
    if (startsWith(Name, "on") && Name.size() > 2) {
      std::string Type = Name.substr(2);
      B.recordHandlerAccess(AccessKind::Read, AccessOrigin::Plain, N, 0,
                            Type, 0);
      Out = B.slotHandler(TargetKey{N, 0}, Type);
      return true;
    }

    // --- Methods -----------------------------------------------------------
    if (Name == "getAttribute") {
      Out = method(I, "getAttribute",
                   [](Interpreter &In, Value ThisV,
                      std::vector<Value> &A) -> Completion {
                     Object *Obj = ThisV.objectOrNull();
                     Element *El =
                         Obj ? selfElement(In, Obj) : nullptr;
                     if (!El)
                       return In.throwError("TypeError", "not an element");
                     std::string AttrName = In.toStringValue(arg(A, 0));
                     if (!El->hasAttribute(AttrName))
                       return Completion::normal(Value::null());
                     return Completion::normal(
                         Value(El->getAttribute(AttrName)));
                   });
      return true;
    }
    if (Name == "setAttribute") {
      Out = method(I, "setAttribute",
                   [](Interpreter &In, Value ThisV,
                      std::vector<Value> &A) -> Completion {
                     Object *Obj = ThisV.objectOrNull();
                     Element *El = Obj ? selfElement(In, Obj) : nullptr;
                     if (!El)
                       return In.throwError("TypeError", "not an element");
                     Browser &B2 = browserOf(Obj);
                     std::string AttrName =
                         toLower(In.toStringValue(arg(A, 0)));
                     std::string AttrValue = In.toStringValue(arg(A, 1));
                     if (startsWith(AttrName, "on") &&
                         AttrName.size() > 2) {
                       // Installing a handler via attribute.
                       B2.setSlotHandlerSource(TargetKey{El->id(), 0},
                                               AttrName.substr(2),
                                               AttrValue);
                       return Completion::normal();
                     }
                     if (AttrName == "value" &&
                         (El->tagName() == "input" ||
                          El->tagName() == "textarea")) {
                       B2.recordVarAccess(
                           AccessKind::Write,
                           AccessOrigin::FormFieldWrite,
                           Browser::domContainer(El->id()), "value");
                       El->setFormValue(AttrValue);
                     }
                     B2.recordVarAccess(
                         AccessKind::Write, AccessOrigin::Plain,
                         Browser::domContainer(El->id()), AttrName);
                     El->setAttribute(AttrName, AttrValue);
                     return Completion::normal();
                   });
      return true;
    }
    if (Name == "removeAttribute") {
      Out = method(I, "removeAttribute",
                   [](Interpreter &In, Value ThisV,
                      std::vector<Value> &A) -> Completion {
                     Object *Obj = ThisV.objectOrNull();
                     Element *El = Obj ? selfElement(In, Obj) : nullptr;
                     if (!El)
                       return In.throwError("TypeError", "not an element");
                     Browser &B2 = browserOf(Obj);
                     std::string AttrName =
                         toLower(In.toStringValue(arg(A, 0)));
                     B2.recordVarAccess(
                         AccessKind::Write, AccessOrigin::Plain,
                         Browser::domContainer(El->id()), AttrName);
                     El->removeAttribute(AttrName);
                     return Completion::normal();
                   });
      return true;
    }
    if (Name == "appendChild") {
      Out = method(I, "appendChild",
                   [](Interpreter &In, Value ThisV,
                      std::vector<Value> &A) -> Completion {
                     Object *Obj = ThisV.objectOrNull();
                     if (!Obj)
                       return In.throwError("TypeError", "not a node");
                     return insertChildImpl(In, Obj, arg(A, 0), Value(),
                                            /*HasRef=*/false);
                   });
      return true;
    }
    if (Name == "insertBefore") {
      Out = method(I, "insertBefore",
                   [](Interpreter &In, Value ThisV,
                      std::vector<Value> &A) -> Completion {
                     Object *Obj = ThisV.objectOrNull();
                     if (!Obj)
                       return In.throwError("TypeError", "not a node");
                     return insertChildImpl(In, Obj, arg(A, 0), arg(A, 1),
                                            /*HasRef=*/true);
                   });
      return true;
    }
    if (Name == "removeChild") {
      Out = method(
          I, "removeChild",
          [](Interpreter &In, Value ThisV,
             std::vector<Value> &A) -> Completion {
            Object *Obj = ThisV.objectOrNull();
            if (!Obj)
              return In.throwError("TypeError", "not a node");
            Browser &B2 = browserOf(Obj);
            Node *Parent = B2.nodeFor(Obj);
            Node *Child = arg(A, 0).isObject()
                              ? B2.nodeFor(arg(A, 0).asObject())
                              : nullptr;
            if (!Parent || !Child)
              return In.throwError("TypeError",
                                   "parameter is not a Node");
            MutationResult R =
                Parent->ownerDocument()->removeChild(Parent, Child);
            if (!R.Ok)
              return In.throwError("NotFoundError", R.Error);
            B2.recordElementInsertion(R.AffectedElements,
                                      /*Inserted=*/false);
            return Completion::normal(arg(A, 0));
          });
      return true;
    }
    if (Name == "addEventListener" || Name == "removeEventListener") {
      bool Add = Name == "addEventListener";
      Out = method(
          I, Name.c_str(),
          [Add](Interpreter &In, Value ThisV,
                std::vector<Value> &A) -> Completion {
            Object *Obj = ThisV.objectOrNull();
            if (!Obj)
              return In.throwError("TypeError", "not an event target");
            Browser &B2 = browserOf(Obj);
            Node *NodePtr = B2.nodeFor(Obj);
            TargetKey Key = NodePtr
                                ? TargetKey{NodePtr->id(), 0}
                                : TargetKey{InvalidNodeId,
                                            Obj->containerId()};
            std::string Type = In.toStringValue(arg(A, 0));
            bool Capture = Interpreter::toBoolean(arg(A, 2));
            if (Add)
              B2.addListener(Key, Type, arg(A, 1), Capture);
            else
              B2.removeListener(Key, Type, arg(A, 1));
            return Completion::normal();
          });
      return true;
    }
    if (Name == "click" || Name == "focus" || Name == "blur") {
      std::string Type = Name == "click" ? "click"
                         : Name == "focus" ? "focus"
                                           : "blur";
      Out = method(I, Name.c_str(),
                   [Type](Interpreter &In, Value ThisV,
                          std::vector<Value> &) -> Completion {
                     Object *Obj = ThisV.objectOrNull();
                     Element *El = Obj ? selfElement(In, Obj) : nullptr;
                     if (!El)
                       return In.throwError("TypeError", "not an element");
                     // Inline event dispatch (Appendix A splitting).
                     browserOf(Obj).dispatchEvent(TargetKey{El->id(), 0},
                                                  Type, {});
                     return Completion::normal();
                   });
      return true;
    }
    if (Name == "getElementsByTagName") {
      Out = method(
          I, "getElementsByTagName",
          [](Interpreter &In, Value ThisV,
             std::vector<Value> &A) -> Completion {
            Object *Obj = ThisV.objectOrNull();
            Element *El = Obj ? selfElement(In, Obj) : nullptr;
            if (!El)
              return In.throwError("TypeError", "not an element");
            Browser &B2 = browserOf(Obj);
            std::string Tag = toLower(In.toStringValue(arg(A, 0)));
            B2.recordLookup(El->ownerDocument()->documentId(),
                            ElemKeyKind::ByTag, Tag);
            Object *Arr = In.heap().allocArray();
            // Scoped to the subtree.
            std::vector<Element *> All =
                El->ownerDocument()->getElementsByTagName(Tag);
            for (Element *Found : All) {
              for (Node *Walk = Found; Walk; Walk = Walk->parent()) {
                if (Walk == El && Found != El) {
                  Arr->elements().push_back(Value(B2.wrapperFor(Found)));
                  break;
                }
              }
            }
            return Completion::normal(Value(Arr));
          });
      return true;
    }
    if (Name == "hasChildNodes") {
      Out = method(I, "hasChildNodes",
                   [](Interpreter &In, Value ThisV,
                      std::vector<Value> &) -> Completion {
                     Object *Obj = ThisV.objectOrNull();
                     Node *NodePtr =
                         Obj ? browserOf(Obj).nodeFor(Obj) : nullptr;
                     if (!NodePtr)
                       return In.throwError("TypeError", "not a node");
                     return Completion::normal(
                         Value(!NodePtr->children().empty()));
                   });
      return true;
    }
    return false; // Expando properties use the generic instrumented path.
  }

  bool hostSet(Interpreter &I, Object *Self, const std::string &Name,
               const Value &V) override {
    Browser &B = browserOf(Self);
    Element *E = selfElement(I, Self);
    if (!E)
      return false;
    NodeId N = E->id();

    if (Name == "value") {
      B.recordVarAccess(AccessKind::Write, AccessOrigin::FormFieldWrite,
                        Browser::domContainer(N), "value",
                        "script wrote value");
      E->setFormValue(I.toStringValue(V));
      return true;
    }
    if (Name == "checked") {
      B.recordVarAccess(AccessKind::Write, AccessOrigin::FormFieldWrite,
                        Browser::domContainer(N), "checked");
      E->setChecked(Interpreter::toBoolean(V));
      return true;
    }
    if (Name == "id") {
      std::string NewId = I.toStringValue(V);
      B.recordVarAccess(AccessKind::Write, AccessOrigin::Plain,
                        Browser::domContainer(N), "id");
      if (E->inDocument()) {
        DocumentId D = E->ownerDocument()->documentId();
        std::string Old = E->idAttr();
        if (!Old.empty())
          B.recordAccess(AccessKind::Write, AccessOrigin::ElemRemove,
                         HtmlElemLoc{D, ElemKeyKind::ById, InvalidNodeId,
                                     Old});
        if (!NewId.empty())
          B.recordAccess(AccessKind::Write, AccessOrigin::ElemInsert,
                         HtmlElemLoc{D, ElemKeyKind::ById, InvalidNodeId,
                                     NewId});
      }
      E->setAttribute("id", NewId);
      return true;
    }
    if (Name == "src") {
      B.recordVarAccess(AccessKind::Write, AccessOrigin::Plain,
                        Browser::domContainer(N), "src");
      E->setAttribute("src", I.toStringValue(V));
      if (E->tagName() == "img") {
        // Setting img.src starts the load even when detached (the classic
        // Image-preload idiom the Gomez monitor watches).
        Window *W =
            B.windowForDocument(E->ownerDocument()->documentId());
        if (W)
          B.handleDynamicInsertion(*W, E);
      }
      return true;
    }
    if (Name == "href" || Name == "className" || Name == "title" ||
        Name == "alt" || Name == "name" || Name == "type") {
      B.recordVarAccess(AccessKind::Write, AccessOrigin::Plain,
                        Browser::domContainer(N), Name);
      E->setAttribute(Name == "className" ? "class" : Name,
                      I.toStringValue(V));
      return true;
    }
    if (Name == "disabled") {
      if (Interpreter::toBoolean(V))
        E->setAttribute("disabled", "");
      else
        E->removeAttribute("disabled");
      return true;
    }
    if (Name == "innerHTML") {
      DocumentId D = E->ownerDocument()->documentId();
      B.recordAccess(AccessKind::Write, AccessOrigin::ElemInsert,
                     HtmlElemLoc{D, ElemKeyKind::ByNode, N, ""},
                     "innerHTML");
      Document *Doc = E->ownerDocument();
      // Remove existing children.
      while (!E->children().empty()) {
        MutationResult R = Doc->removeChild(E, E->children().back());
        B.recordElementInsertion(R.AffectedElements, /*Inserted=*/false);
      }
      std::vector<Element *> Opened = html::HtmlParser::parseFragment(
          *Doc, E, I.toStringValue(V));
      B.recordElementInsertion(Opened, /*Inserted=*/true);
      if (E->inDocument())
        if (Window *W = B.windowForDocument(D))
          for (Element *Inserted : Opened)
            B.handleDynamicInsertion(*W, Inserted);
      return true;
    }
    if (startsWith(Name, "on") && Name.size() > 2) {
      B.setSlotHandler(TargetKey{N, 0}, Name.substr(2), V);
      return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Style host class
// ---------------------------------------------------------------------------

class StyleClass final : public HostClass {
public:
  const char *name() const override { return "CSSStyleDeclaration"; }

  bool hostGet(Interpreter &, Object *Self, const std::string &Name,
               Value &Out) override {
    Browser &B = browserOf(Self);
    Element *E = static_cast<Element *>(Self->hostPtr());
    if (startsWith(Name, "__"))
      return false;
    B.recordVarAccess(AccessKind::Read, AccessOrigin::Plain,
                      Browser::domContainer(E->id()), "style." + Name);
    Out = Value(E->getAttribute("__style_" + toLower(Name)));
    return true;
  }

  bool hostSet(Interpreter &I, Object *Self, const std::string &Name,
               const Value &V) override {
    Browser &B = browserOf(Self);
    Element *E = static_cast<Element *>(Self->hostPtr());
    if (startsWith(Name, "__"))
      return false;
    B.recordVarAccess(AccessKind::Write, AccessOrigin::Plain,
                      Browser::domContainer(E->id()), "style." + Name);
    E->setAttribute("__style_" + toLower(Name), I.toStringValue(V));
    return true;
  }
};

// ---------------------------------------------------------------------------
// Text node host class
// ---------------------------------------------------------------------------

class TextClass final : public HostClass {
public:
  const char *name() const override { return "Text"; }

  bool hostGet(Interpreter &, Object *Self, const std::string &Name,
               Value &Out) override {
    Browser &B = browserOf(Self);
    Text *T = dyn_cast<Text>(B.nodeFor(Self));
    if (!T)
      return false;
    if (Name == "data" || Name == "nodeValue" || Name == "textContent") {
      Out = Value(T->data());
      return true;
    }
    if (Name == "parentNode") {
      Node *P = T->parent();
      Out = P ? Value(B.wrapperFor(P)) : Value::null();
      return true;
    }
    return false;
  }

  bool hostSet(Interpreter &I, Object *Self, const std::string &Name,
               const Value &V) override {
    Browser &B = browserOf(Self);
    Text *T = dyn_cast<Text>(B.nodeFor(Self));
    if (!T)
      return false;
    if (Name == "data" || Name == "nodeValue" || Name == "textContent") {
      T->setData(I.toStringValue(V));
      return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Document host class
// ---------------------------------------------------------------------------

class DocumentClass final : public HostClass {
public:
  const char *name() const override { return "HTMLDocument"; }

  bool hostGet(Interpreter &I, Object *Self, const std::string &Name,
               Value &Out) override {
    Browser &B = browserOf(Self);
    Document *Doc = dyn_cast<Document>(B.nodeFor(Self));
    if (!Doc)
      return false;
    DocumentId D = Doc->documentId();

    if (Name == "body") {
      Out = Value(B.wrapperFor(Doc->body()));
      return true;
    }
    if (Name == "head") {
      Out = Value(B.wrapperFor(Doc->head()));
      return true;
    }
    if (Name == "documentElement") {
      Out = Value(B.wrapperFor(Doc->documentElement()));
      return true;
    }
    if (Name == "readyState") {
      Window *W = B.windowForDocument(D);
      const char *State = "loading";
      if (W && W->loadFired())
        State = "complete";
      else if (W && W->dclFired())
        State = "interactive";
      else if (W && W->parsingDone())
        State = "interactive";
      Out = Value(State);
      return true;
    }
    if (Name == "forms" || Name == "images" || Name == "links" ||
        Name == "anchors" || Name == "scripts") {
      std::string Tag = Name == "forms"    ? "form"
                        : Name == "images" ? "img"
                        : Name == "scripts" ? "script"
                                            : "a";
      B.recordLookup(D, ElemKeyKind::ByTag, Tag);
      Object *Arr = I.heap().allocArray();
      for (Element *E : Doc->getElementsByTagName(Tag))
        Arr->elements().push_back(Value(B.wrapperFor(E)));
      Out = Value(Arr);
      return true;
    }
    if (Name == "childNodes") {
      Object *Arr = I.heap().allocArray();
      for (Node *Child : Doc->children())
        Arr->elements().push_back(Value(B.wrapperFor(Child)));
      Out = Value(Arr);
      return true;
    }
    if (startsWith(Name, "on") && Name.size() > 2) {
      std::string Type = Name.substr(2);
      B.recordHandlerAccess(AccessKind::Read, AccessOrigin::Plain, Doc->id(),
                            0, Type, 0);
      Out = B.slotHandler(TargetKey{Doc->id(), 0}, Type);
      return true;
    }
    if (Name == "getElementById") {
      Out = method(
          I, "getElementById",
          [](Interpreter &In, Value ThisV,
             std::vector<Value> &A) -> Completion {
            Object *Obj = ThisV.objectOrNull();
            Document *Doc2 =
                Obj ? dyn_cast<Document>(browserOf(Obj).nodeFor(Obj))
                    : nullptr;
            if (!Doc2)
              return In.throwError("TypeError", "not a document");
            Browser &B2 = browserOf(Obj);
            std::string Id = In.toStringValue(arg(A, 0));
            B2.recordLookup(Doc2->documentId(), ElemKeyKind::ById, Id);
            Element *Found = Doc2->getElementById(Id);
            if (!Found)
              return Completion::normal(Value::null());
            // The lookup read is keyed by the id string so that both the
            // found and not-found cases collide with the element's
            // insertion write on the same logical location.
            return Completion::normal(Value(B2.wrapperFor(Found)));
          });
      return true;
    }
    if (Name == "getElementsByTagName" || Name == "getElementsByName") {
      bool ByTag = Name == "getElementsByTagName";
      Out = method(
          I, Name.c_str(),
          [ByTag](Interpreter &In, Value ThisV,
                  std::vector<Value> &A) -> Completion {
            Object *Obj = ThisV.objectOrNull();
            Document *Doc2 =
                Obj ? dyn_cast<Document>(browserOf(Obj).nodeFor(Obj))
                    : nullptr;
            if (!Doc2)
              return In.throwError("TypeError", "not a document");
            Browser &B2 = browserOf(Obj);
            std::string Key = In.toStringValue(arg(A, 0));
            B2.recordLookup(Doc2->documentId(),
                            ByTag ? ElemKeyKind::ByTag
                                  : ElemKeyKind::ByName,
                            ByTag ? toLower(Key) : Key);
            Object *Arr = In.heap().allocArray();
            std::vector<Element *> Found =
                ByTag ? Doc2->getElementsByTagName(Key)
                      : Doc2->getElementsByName(Key);
            for (Element *E : Found)
              Arr->elements().push_back(Value(B2.wrapperFor(E)));
            return Completion::normal(Value(Arr));
          });
      return true;
    }
    if (Name == "createElement" || Name == "createTextNode") {
      bool IsElement = Name == "createElement";
      Out = method(
          I, Name.c_str(),
          [IsElement](Interpreter &In, Value ThisV,
                      std::vector<Value> &A) -> Completion {
            Object *Obj = ThisV.objectOrNull();
            Document *Doc2 =
                Obj ? dyn_cast<Document>(browserOf(Obj).nodeFor(Obj))
                    : nullptr;
            if (!Doc2)
              return In.throwError("TypeError", "not a document");
            Browser &B2 = browserOf(Obj);
            Node *Fresh =
                IsElement
                    ? static_cast<Node *>(
                          Doc2->createElement(In.toStringValue(arg(A, 0))))
                    : static_cast<Node *>(Doc2->createTextNode(
                          In.toStringValue(arg(A, 0))));
            return Completion::normal(Value(B2.wrapperFor(Fresh)));
          });
      return true;
    }
    if (Name == "addEventListener" || Name == "removeEventListener") {
      bool Add = Name == "addEventListener";
      Out = method(
          I, Name.c_str(),
          [Add](Interpreter &In, Value ThisV,
                std::vector<Value> &A) -> Completion {
            Object *Obj = ThisV.objectOrNull();
            if (!Obj)
              return In.throwError("TypeError", "not an event target");
            Browser &B2 = browserOf(Obj);
            Node *NodePtr = B2.nodeFor(Obj);
            TargetKey Key{NodePtr ? NodePtr->id() : InvalidNodeId,
                          NodePtr ? 0 : Obj->containerId()};
            std::string Type = In.toStringValue(arg(A, 0));
            if (Add)
              B2.addListener(Key, Type, arg(A, 1),
                             Interpreter::toBoolean(arg(A, 2)));
            else
              B2.removeListener(Key, Type, arg(A, 1));
            return Completion::normal();
          });
      return true;
    }
    if (Name == "write" || Name == "writeln") {
      // Simplified document.write: the markup is parsed and appended to
      // the body (not at the parser's insertion point); inserted scripts
      // and images behave like dynamic insertions.
      Out = method(
          I, Name.c_str(),
          [](Interpreter &In, Value ThisV,
             std::vector<Value> &A) -> Completion {
            Object *Obj = ThisV.objectOrNull();
            Document *Doc2 =
                Obj ? dyn_cast<Document>(browserOf(Obj).nodeFor(Obj))
                    : nullptr;
            if (!Doc2)
              return In.throwError("TypeError", "not a document");
            Browser &B2 = browserOf(Obj);
            std::vector<Element *> Opened =
                html::HtmlParser::parseFragment(
                    *Doc2, Doc2->body(), In.toStringValue(arg(A, 0)));
            B2.recordElementInsertion(Opened, /*Inserted=*/true);
            if (Window *W = B2.windowForDocument(Doc2->documentId()))
              for (Element *E : Opened)
                B2.handleDynamicInsertion(*W, E);
            return Completion::normal();
          });
      return true;
    }
    return false;
  }

  bool hostSet(Interpreter &, Object *Self, const std::string &Name,
               const Value &V) override {
    Browser &B = browserOf(Self);
    Document *Doc = dyn_cast<Document>(B.nodeFor(Self));
    if (!Doc)
      return false;
    if (startsWith(Name, "on") && Name.size() > 2) {
      B.setSlotHandler(TargetKey{Doc->id(), 0}, Name.substr(2), V);
      return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Window host class
// ---------------------------------------------------------------------------

class WindowClass final : public HostClass {
public:
  const char *name() const override { return "Window"; }

  bool hostGet(Interpreter &I, Object *Self, const std::string &Name,
               Value &Out) override {
    Browser &B = browserOf(Self);
    Window *W = B.windowForObject(Self);
    if (!W)
      return false;
    if (Name == "document") {
      Out = Value(W->documentObject());
      return true;
    }
    if (Name == "window" || Name == "self" || Name == "top") {
      Out = Value(Name == "top" && W->parent()
                      ? W->parent()->windowObject()
                      : W->windowObject());
      return true;
    }
    if (Name == "parent") {
      Out = Value(W->parent() ? W->parent()->windowObject()
                              : W->windowObject());
      return true;
    }
    if (Name == "frameElement") {
      Out = W->frameElement() ? Value(B.wrapperFor(W->frameElement()))
                              : Value::null();
      return true;
    }
    if (startsWith(Name, "on") && Name.size() > 2) {
      std::string Type = Name.substr(2);
      B.recordHandlerAccess(AccessKind::Read, AccessOrigin::Plain,
                            InvalidNodeId, Self->containerId(), Type, 0);
      Out = B.slotHandler(TargetKey{InvalidNodeId, Self->containerId()},
                          Type);
      return true;
    }
    if (Name == "addEventListener" || Name == "removeEventListener") {
      bool Add = Name == "addEventListener";
      Out = method(
          I, Name.c_str(),
          [Add](Interpreter &In, Value ThisV,
                std::vector<Value> &A) -> Completion {
            Object *Obj = ThisV.objectOrNull();
            if (!Obj)
              return In.throwError("TypeError", "not an event target");
            Browser &B2 = browserOf(Obj);
            TargetKey Key{InvalidNodeId, Obj->containerId()};
            std::string Type = In.toStringValue(arg(A, 0));
            if (Add)
              B2.addListener(Key, Type, arg(A, 1),
                             Interpreter::toBoolean(arg(A, 2)));
            else
              B2.removeListener(Key, Type, arg(A, 1));
            return Completion::normal();
          });
      return true;
    }
    return false;
  }

  bool hostSet(Interpreter &, Object *Self, const std::string &Name,
               const Value &V) override {
    Browser &B = browserOf(Self);
    if (startsWith(Name, "on") && Name.size() > 2) {
      B.setSlotHandler(TargetKey{InvalidNodeId, Self->containerId()},
                       Name.substr(2), V);
      return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// XMLHttpRequest host class
// ---------------------------------------------------------------------------

class XhrClass final : public HostClass {
public:
  const char *name() const override { return "XMLHttpRequest"; }

  bool hostGet(Interpreter &I, Object *Self, const std::string &Name,
               Value &Out) override {
    Browser &B = browserOf(Self);
    if (Name == "onreadystatechange" || Name == "onload" ||
        Name == "onerror") {
      std::string Type = Name.substr(2);
      B.recordHandlerAccess(AccessKind::Read, AccessOrigin::Plain,
                            InvalidNodeId, Self->containerId(), Type, 0);
      Out = B.slotHandler(TargetKey{InvalidNodeId, Self->containerId()},
                          Type);
      return true;
    }
    if (Name == "open") {
      Out = method(I, "open",
                   [](Interpreter &In, Value ThisV,
                      std::vector<Value> &A) -> Completion {
                     Object *Obj = ThisV.objectOrNull();
                     if (!Obj)
                       return In.throwError("TypeError", "not an XHR");
                     Obj->setOwnProperty("__url",
                                         Value(In.toStringValue(
                                             arg(A, 1))));
                     Obj->setOwnProperty("readyState", Value(1.0));
                     return Completion::normal();
                   });
      return true;
    }
    if (Name == "send") {
      Out = method(I, "send",
                   [](Interpreter &In, Value ThisV,
                      std::vector<Value> &) -> Completion {
                     Object *Obj = ThisV.objectOrNull();
                     if (!Obj)
                       return In.throwError("TypeError", "not an XHR");
                     browserOf(Obj).xhrSend(Obj);
                     return Completion::normal();
                   });
      return true;
    }
    if (Name == "setRequestHeader" || Name == "abort") {
      Out = method(I, Name.c_str(),
                   [](Interpreter &, Value, std::vector<Value> &) {
                     return Completion::normal();
                   });
      return true;
    }
    if (Name == "addEventListener") {
      Out = method(
          I, "addEventListener",
          [](Interpreter &In, Value ThisV,
             std::vector<Value> &A) -> Completion {
            Object *Obj = ThisV.objectOrNull();
            if (!Obj)
              return In.throwError("TypeError", "not an XHR");
            browserOf(Obj).addListener(
                TargetKey{InvalidNodeId, Obj->containerId()},
                In.toStringValue(arg(A, 0)), arg(A, 1), false);
            return Completion::normal();
          });
      return true;
    }
    return false; // readyState/status/responseText: generic storage.
  }

  bool hostSet(Interpreter &, Object *Self, const std::string &Name,
               const Value &V) override {
    Browser &B = browserOf(Self);
    if (Name == "onreadystatechange" || Name == "onload" ||
        Name == "onerror") {
      B.setSlotHandler(TargetKey{InvalidNodeId, Self->containerId()},
                       Name.substr(2), V);
      return true;
    }
    return false;
  }
};

ElementClass ElementClassInstance;
DocumentClass DocumentClassInstance;
WindowClass WindowClassInstance;
XhrClass XhrClassInstance;
StyleClass StyleClassInstance;
TextClass TextClassInstance;

} // namespace

const HostClass *wr::rt::elementHostClass() { return &ElementClassInstance; }
const HostClass *wr::rt::documentHostClass() {
  return &DocumentClassInstance;
}
const HostClass *wr::rt::windowHostClass() { return &WindowClassInstance; }
const HostClass *wr::rt::xhrHostClass() { return &XhrClassInstance; }
const HostClass *wr::rt::styleHostClass() { return &StyleClassInstance; }
const HostClass *wr::rt::textHostClass() { return &TextClassInstance; }

// ---------------------------------------------------------------------------
// Global bindings
// ---------------------------------------------------------------------------

void wr::rt::installWindowObjects(Browser &B, Window &W) {
  Object *WindowObj = B.heap().allocObject();
  WindowObj->setHostClass(windowHostClass());
  WindowObj->setHostInt(reinterpret_cast<uint64_t>(&B));
  W.setWindowObject(WindowObj);
  Object *DocumentObj = B.wrapperFor(&W.document());
  W.setDocumentObject(DocumentObj);
}

void wr::rt::installBindings(Browser &B) {
  js::Env *G = B.interp().globalEnv();
  js::Heap &H = B.heap();
  Browser *BP = &B;

  auto DefineFn = [&](const char *Name, js::HostFn Fn) {
    G->define(Name, Value(H.allocHostFunction(std::move(Fn), Name)));
  };

  DefineFn("setTimeout",
           [BP](Interpreter &In, Value, std::vector<Value> &A) {
             double Delay = In.toNumber(arg(A, 1));
             if (std::isnan(Delay) || Delay < 0)
               Delay = 0;
             uint64_t Id = BP->setTimeout(
                 arg(A, 0), static_cast<VirtualTime>(Delay));
             return Completion::normal(Value(static_cast<double>(Id)));
           });
  DefineFn("setInterval",
           [BP](Interpreter &In, Value, std::vector<Value> &A) {
             double Delay = In.toNumber(arg(A, 1));
             if (std::isnan(Delay) || Delay < 0)
               Delay = 0;
             uint64_t Id = BP->setInterval(
                 arg(A, 0), static_cast<VirtualTime>(Delay));
             return Completion::normal(Value(static_cast<double>(Id)));
           });
  DefineFn("clearTimeout",
           [BP](Interpreter &In, Value, std::vector<Value> &A) {
             BP->clearTimer(
                 static_cast<uint64_t>(In.toNumber(arg(A, 0))));
             return Completion::normal();
           });
  DefineFn("clearInterval",
           [BP](Interpreter &In, Value, std::vector<Value> &A) {
             BP->clearTimer(
                 static_cast<uint64_t>(In.toNumber(arg(A, 0))));
             return Completion::normal();
           });
  DefineFn("alert", [BP](Interpreter &In, Value, std::vector<Value> &A) {
    BP->recordAlert(In.toStringValue(arg(A, 0)));
    return Completion::normal();
  });
  DefineFn("confirm", [](Interpreter &, Value, std::vector<Value> &) {
    return Completion::normal(Value(true));
  });
  DefineFn("XMLHttpRequest",
           [BP](Interpreter &In, Value, std::vector<Value> &) {
             Object *Xhr = In.heap().allocObject();
             Xhr->setHostClass(xhrHostClass());
             Xhr->setHostInt(reinterpret_cast<uint64_t>(BP));
             Xhr->setOwnProperty("readyState", Value(0.0));
             return Completion::normal(Value(Xhr));
           });
  DefineFn("Image", [BP](Interpreter &, Value, std::vector<Value> &) {
    Window *Main = BP->mainWindow();
    if (!Main)
      return Completion::normal(Value::null());
    Element *Img = Main->document().createElement("img");
    return Completion::normal(Value(BP->wrapperFor(Img)));
  });
  // eval: parse and run in the global scope, synchronously, inside the
  // current operation. The paper singles out eval as a construct that
  // defeats static analysis but that a dynamic detector simply observes
  // (Sec. 1) - accesses made by eval'd code flow through the same hooks.
  DefineFn("eval", [BP](Interpreter &In, Value, std::vector<Value> &A) {
    Value Code = arg(A, 0);
    if (!Code.isString())
      return Completion::normal(Code);
    const js::Program *P =
        BP->compile(Code.asString(), "eval");
    if (!P)
      return In.throwError("SyntaxError", "eval: invalid program");
    return In.runProgram(*P);
  });

  // Date: virtual-clock backed so monitor-style scripts (the Gomez
  // pattern measures image load times) behave deterministically.
  DefineFn("Date", [BP](Interpreter &In, Value, std::vector<Value> &) {
    Object *D = In.heap().allocObject();
    double NowMs = static_cast<double>(BP->loop().now()) / 1000.0;
    D->setOwnProperty("__ms", Value(NowMs));
    D->setOwnProperty(
        "getTime",
        Value(In.heap().allocHostFunction(
            [](Interpreter &, Value ThisV, std::vector<Value> &) {
              Object *Self = ThisV.objectOrNull();
              const Value *Ms =
                  Self ? Self->findOwnProperty("__ms") : nullptr;
              return Completion::normal(Ms ? *Ms : Value(0.0));
            },
            "getTime")));
    return Completion::normal(Value(D));
  });
  // Date.now as a property of the Date constructor.
  if (Value *DateCtor = G->findOwn("Date"))
    if (Object *DateObj = DateCtor->objectOrNull())
      DateObj->setOwnProperty(
          "now", Value(H.allocHostFunction(
                     [BP](Interpreter &, Value, std::vector<Value> &) {
                       return Completion::normal(Value(
                           static_cast<double>(BP->loop().now()) /
                           1000.0));
                     },
                     "now")));

  DefineFn("encodeURIComponent",
           [](Interpreter &In, Value, std::vector<Value> &A) {
             return Completion::normal(
                 Value(In.toStringValue(arg(A, 0))));
           });
  DefineFn("decodeURIComponent",
           [](Interpreter &In, Value, std::vector<Value> &A) {
             return Completion::normal(
                 Value(In.toStringValue(arg(A, 0))));
           });

  // console.log / warn / error.
  Object *Console = H.allocObject();
  auto LogFn = [BP](Interpreter &In, Value, std::vector<Value> &A) {
    std::string Line;
    for (size_t I = 0; I < A.size(); ++I) {
      if (I != 0)
        Line += ' ';
      Line += In.toStringValue(A[I]);
    }
    BP->recordConsole(std::move(Line));
    return Completion::normal();
  };
  Console->setOwnProperty("log", Value(H.allocHostFunction(LogFn, "log")));
  Console->setOwnProperty("warn",
                          Value(H.allocHostFunction(LogFn, "warn")));
  Console->setOwnProperty("error",
                          Value(H.allocHostFunction(LogFn, "error")));
  G->define("console", Value(Console));
}
