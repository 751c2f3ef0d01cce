//===- dom/Dom.h - DOM tree ---------------------------------------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A DOM tree: documents, elements, text nodes, attributes, and the
/// mutation API (appendChild / insertBefore / removeChild). This substrate
/// replaces WebKit's DOM for the purposes of the paper's logical
/// HTML-element locations (Sec. 4.2): inserting or removing an element is a
/// write of that element; lookups read it.
///
/// The DOM layer is analysis-free: the runtime's JS bindings instrument
/// accesses around these primitives.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_DOM_DOM_H
#define WEBRACER_DOM_DOM_H

#include "mem/Location.h"

#include <cassert>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace wr {

class Document;
class Element;

/// Discriminator for the Node hierarchy (LLVM-style RTTI via classof).
enum class NodeKind : uint8_t { Document, Element, Text };

/// Base class of all DOM nodes.
class Node {
public:
  virtual ~Node();

  NodeKind kind() const { return Kind; }
  NodeId id() const { return Id; }
  Document *ownerDocument() const { return Owner; }
  Node *parent() const { return Parent; }
  const std::vector<Node *> &children() const { return Children; }

  /// True once the node is attached under its document's root. HTML races
  /// (Sec. 2.3) are exactly accesses racing with this flag flipping.
  bool inDocument() const { return InDoc; }

  /// True if the node was created by the HTML parser (a *static* element in
  /// the paper's terminology) rather than by script.
  bool isStatic() const { return Static; }
  void setStatic(bool S) { Static = S; }

  /// Index of \p Child within our child list; -1 if absent.
  int indexOf(const Node *Child) const;

protected:
  Node(NodeKind K, NodeId Id, Document *Owner)
      : Kind(K), Id(Id), Owner(Owner) {}

private:
  friend class Document;

  NodeKind Kind;
  NodeId Id;
  Document *Owner;
  Node *Parent = nullptr;
  std::vector<Node *> Children;
  bool InDoc = false;
  bool Static = false;
};

/// A text node.
class Text final : public Node {
public:
  static bool classof(const Node *N) { return N->kind() == NodeKind::Text; }

  const std::string &data() const { return Data; }
  void setData(std::string D) { Data = std::move(D); }

private:
  friend class Document;
  Text(NodeId Id, Document *Owner, std::string D)
      : Node(NodeKind::Text, Id, Owner), Data(std::move(D)) {}

  std::string Data;
};

/// One attribute, order-preserving.
struct Attribute {
  std::string Name; ///< Lowercased.
  std::string Value;
};

/// An element node.
class Element final : public Node {
public:
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::Element;
  }

  const std::string &tagName() const { return Tag; }

  bool hasAttribute(std::string_view Name) const;
  /// Returns the attribute value or "" if absent.
  std::string getAttribute(std::string_view Name) const;
  void setAttribute(std::string_view Name, std::string_view Value);
  void removeAttribute(std::string_view Name);
  const std::vector<Attribute> &attributes() const { return Attrs; }

  /// The element's id attribute ("" if none).
  std::string idAttr() const { return getAttribute("id"); }

  /// Form-field state (input/textarea): the user-visible value. Mirrors
  /// the DOM `value` IDL attribute the paper's Fig. 2 race is about.
  const std::string &formValue() const { return FormValue; }
  void setFormValue(std::string V) { FormValue = std::move(V); }
  bool isChecked() const { return Checked; }
  void setChecked(bool C) { Checked = C; }

  /// True for tags that never have children (<img>, <input>, <br>, ...).
  bool isVoidTag() const;

private:
  friend class Document;
  Element(NodeId Id, Document *Owner, std::string Tag)
      : Node(NodeKind::Element, Id, Owner), Tag(std::move(Tag)) {}

  std::string Tag; ///< Lowercased.
  std::vector<Attribute> Attrs;
  std::string FormValue;
  bool Checked = false;
};

/// Result of a mutation: the set of elements whose in-document status
/// changed (the mutated node and its descendants), in tree order. The
/// runtime turns each into an HtmlElemLoc write (Sec. 4.2: dynamic
/// insertion of an element also inserts all of its children).
struct MutationResult {
  std::vector<Element *> AffectedElements;
  bool Ok = true;
  std::string Error;
};

/// A document: owns its nodes and provides lookups and mutations.
class Document final : public Node {
public:
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::Document;
  }

  /// Creates a document. \p Doc is its stable id; \p NextNodeId is a shared
  /// counter so node ids are unique across all documents of one browser.
  Document(DocumentId Doc, uint32_t &NextNodeId);
  ~Document() override;

  DocumentId documentId() const { return DocId; }

  /// The synthetic root <html> element (always present, in-document).
  Element *documentElement() const { return Root; }
  /// The <body> element (always present).
  Element *body() const { return Body; }
  /// The <head> element (always present).
  Element *head() const { return Head; }

  /// Node factories. Created nodes are owned by the document and start
  /// detached (not in the document).
  Element *createElement(std::string_view Tag);
  Text *createTextNode(std::string_view Data);

  /// First in-document element with the given id, in tree order.
  Element *getElementById(std::string_view Id) const;
  /// All in-document elements with the given tag, in tree order. "*"
  /// matches every element.
  std::vector<Element *> getElementsByTagName(std::string_view Tag) const;
  /// All in-document elements whose name attribute matches.
  std::vector<Element *> getElementsByName(std::string_view Name) const;

  /// Appends \p Child as last child of \p Parent (moving it if attached
  /// elsewhere).
  MutationResult appendChild(Node *Parent, Node *Child);
  /// Inserts \p Child before \p Ref under \p Parent (\p Ref null = append).
  MutationResult insertBefore(Node *Parent, Node *Child, Node *Ref);
  /// Detaches \p Child from \p Parent.
  MutationResult removeChild(Node *Parent, Node *Child);

  /// All in-document elements in tree order.
  std::vector<Element *> allElements() const;

private:
  void collectElements(const Node *N, std::vector<Element *> &Out) const;
  static void setInDocumentRecursive(Node *N, bool In,
                                     std::vector<Element *> &Affected);
  bool isAncestorOrSelf(const Node *MaybeAncestor, const Node *N) const;

  DocumentId DocId;
  uint32_t &NextNodeId;
  std::vector<std::unique_ptr<Node>> OwnedNodes;
  Element *Root = nullptr;
  Element *Head = nullptr;
  Element *Body = nullptr;
};

/// LLVM-style isa/cast helpers for the small Node hierarchy.
template <typename T> bool isa(const Node *N) { return T::classof(N); }

template <typename T> T *cast(Node *N) {
  assert(N && T::classof(N) && "cast to wrong node kind");
  return static_cast<T *>(N);
}

template <typename T> const T *cast(const Node *N) {
  assert(N && T::classof(N) && "cast to wrong node kind");
  return static_cast<const T *>(N);
}

template <typename T> T *dyn_cast(Node *N) {
  return (N && T::classof(N)) ? static_cast<T *>(N) : nullptr;
}

template <typename T> const T *dyn_cast(const Node *N) {
  return (N && T::classof(N)) ? static_cast<const T *>(N) : nullptr;
}

} // namespace wr

#endif // WEBRACER_DOM_DOM_H
