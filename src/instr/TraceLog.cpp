//===- instr/TraceLog.cpp - Replayable instrumentation trace ---------------===//

#include "instr/TraceLog.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cstring>
#include <limits>

using namespace wr;

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

void TraceLog::onOperationCreated(OpId Op, const Operation &Meta) {
  TraceEvent E;
  E.K = EventKind::OpCreated;
  E.Op = Op;
  E.Meta = Meta;
  Events.push_back(std::move(E));
}

void TraceLog::onOperationBegin(OpId Op) {
  TraceEvent E;
  E.K = EventKind::OpBegin;
  E.Op = Op;
  Events.push_back(std::move(E));
}

void TraceLog::onOperationEnd(OpId Op, bool Crashed) {
  TraceEvent E;
  E.K = EventKind::OpEnd;
  E.Op = Op;
  E.Crashed = Crashed;
  Events.push_back(std::move(E));
}

void TraceLog::onHbEdge(OpId From, OpId To, HbRule Rule) {
  TraceEvent E;
  E.K = EventKind::HbEdge;
  E.Op = From;
  E.Op2 = To;
  E.Rule = Rule;
  Events.push_back(std::move(E));
}

void TraceLog::onLocationInterned(LocId Id, const Location &Loc) {
  LocId Got = Interner.intern(Loc);
  (void)Got;
  (void)Id;
  assert(Got == Id &&
         "trace interner out of sync (sink attached mid-session?)");
}

void TraceLog::onMemoryAccess(const Access &A) {
  TraceEvent E;
  E.K = EventKind::MemAccess;
  E.Op = A.Op;
  E.Mem = A;
  Events.push_back(std::move(E));
}

void TraceLog::onEventDispatch(NodeId Target, ContainerId TargetObject,
                               const std::string &EventType,
                               int32_t DispatchIndex, OpId Begin, OpId End) {
  TraceEvent E;
  E.K = EventKind::Dispatch;
  E.Op = Begin;
  E.Op2 = End;
  E.Target = Target;
  E.TargetObject = TargetObject;
  E.EventType = EventType;
  E.DispatchIndex = DispatchIndex;
  Events.push_back(std::move(E));
}

size_t TraceLog::count(EventKind Kind) const {
  size_t N = 0;
  for (const TraceEvent &E : Events)
    if (E.K == Kind)
      ++N;
  return N;
}

std::string TraceLog::toString() const {
  std::string Out;
  for (const TraceEvent &E : Events) {
    switch (E.K) {
    case EventKind::OpCreated:
      Out += strFormat("op %u created: %s %s\n", E.Op,
                       wr::toString(E.Meta.Kind), E.Meta.Label.c_str());
      break;
    case EventKind::OpBegin:
      Out += strFormat("op %u begin\n", E.Op);
      break;
    case EventKind::OpEnd:
      Out += strFormat("op %u end%s\n", E.Op, E.Crashed ? " (crashed)" : "");
      break;
    case EventKind::HbEdge:
      Out += strFormat("hb %u -> %u  [%s]\n", E.Op, E.Op2,
                       wr::toString(E.Rule));
      break;
    case EventKind::MemAccess: {
      std::string LocStr = Interner.contains(E.Mem.Loc)
                               ? wr::toString(Interner.resolve(E.Mem.Loc))
                               : strFormat("loc#%u", E.Mem.Loc);
      Out += strFormat("op %u %s %s  [%s] %s\n", E.Op,
                       wr::toString(E.Mem.Kind), LocStr.c_str(),
                       wr::toString(E.Mem.Origin), E.Mem.Detail.c_str());
      break;
    }
    case EventKind::Dispatch:
      Out += strFormat("dispatch disp%d(%s, node%u) ops [%u..%u]\n",
                       E.DispatchIndex, E.EventType.c_str(), E.Target, E.Op,
                       E.Op2);
      break;
    }
  }
  return Out;
}

// ---------------------------------------------------------------------------
// Binary serialization
// ---------------------------------------------------------------------------
//
// Layout (WRT2, current): "WRT2" magic, a varint location count followed
// by that many location records (the string table, in LocId order), then
// a varint event count and one record per event: a kind byte followed by
// kind-specific payload. Access records name their location by varint
// LocId into the table. All integers are LEB128 varints; signed values
// are zigzag-coded; strings are a varint length plus raw bytes.
//
// Layout (WRT1, legacy): same, minus the location table; each access
// record inlines its full location instead of an id. Decoding re-interns
// the inline locations in stream order, which reproduces the online ids.

namespace {

constexpr char MagicV2[4] = {'W', 'R', 'T', '2'};
constexpr char MagicV1[4] = {'W', 'R', 'T', '1'};

void putVar(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

void putZig(std::string &Out, int64_t V) {
  putVar(Out, (static_cast<uint64_t>(V) << 1) ^
                  static_cast<uint64_t>(V >> 63));
}

void putU8(std::string &Out, uint8_t V) {
  Out.push_back(static_cast<char>(V));
}

void putStr(std::string &Out, const std::string &S) {
  putVar(Out, S.size());
  Out += S;
}

void putLocation(std::string &Out, const Location &Loc) {
  putU8(Out, static_cast<uint8_t>(Loc.index()));
  if (const auto *V = std::get_if<JSVarLoc>(&Loc)) {
    putVar(Out, V->Container);
    putStr(Out, V->Name);
  } else if (const auto *H = std::get_if<HtmlElemLoc>(&Loc)) {
    putVar(Out, H->Doc);
    putU8(Out, static_cast<uint8_t>(H->Kind));
    putVar(Out, H->Node);
    putStr(Out, H->Key);
  } else {
    const auto &E = std::get<EventHandlerLoc>(Loc);
    putVar(Out, E.Target);
    putVar(Out, E.TargetObject);
    putStr(Out, E.EventType);
    putVar(Out, E.HandlerId);
  }
}

/// WRT2 access record: the location is a varint id into the table.
void putAccess(std::string &Out, const Access &A) {
  putU8(Out, static_cast<uint8_t>(A.Kind));
  putU8(Out, static_cast<uint8_t>(A.Origin));
  putVar(Out, A.Op);
  putVar(Out, A.Loc);
  putStr(Out, A.Detail);
}

/// WRT1 access record: the full location is inlined.
void putAccessLegacy(std::string &Out, const Access &A,
                     const LocationInterner &Interner) {
  putU8(Out, static_cast<uint8_t>(A.Kind));
  putU8(Out, static_cast<uint8_t>(A.Origin));
  putVar(Out, A.Op);
  assert(Interner.contains(A.Loc) &&
         "legacy serialization needs a resolvable location id");
  putLocation(Out, Interner.resolve(A.Loc));
  putStr(Out, A.Detail);
}

void putOperation(std::string &Out, const Operation &Op) {
  putU8(Out, static_cast<uint8_t>(Op.Kind));
  putVar(Out, Op.Doc);
  putVar(Out, Op.Subject);
  putStr(Out, Op.EventType);
  putZig(Out, Op.DispatchIndex);
  putStr(Out, Op.Label);
  putU8(Out, static_cast<uint8_t>(Op.Trigger));
  putStr(Out, Op.TriggerKey);
}

/// Bounds-checked reader over the serialized bytes. Every get* returns
/// false on truncation; enum reads additionally range-check the value.
class Reader {
public:
  Reader(const std::string &Bytes, size_t Start) : Data(Bytes), Pos(Start) {}

  bool atEnd() const { return Pos == Data.size(); }

  bool getVar(uint64_t &V) {
    V = 0;
    for (int Shift = 0; Shift < 64; Shift += 7) {
      if (Pos >= Data.size())
        return fail("truncated varint");
      uint8_t B = static_cast<uint8_t>(Data[Pos++]);
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return true;
    }
    return fail("overlong varint");
  }

  bool getZig(int64_t &V) {
    uint64_t Raw;
    if (!getVar(Raw))
      return false;
    V = static_cast<int64_t>(Raw >> 1) ^ -static_cast<int64_t>(Raw & 1);
    return true;
  }

  template <typename T> bool getNarrow(T &V, const char *What) {
    uint64_t Raw;
    if (!getVar(Raw))
      return false;
    if (Raw > std::numeric_limits<T>::max())
      return fail(What);
    V = static_cast<T>(Raw);
    return true;
  }

  template <typename E> bool getEnum(E &V, uint8_t Max, const char *What) {
    if (Pos >= Data.size())
      return fail("truncated enum");
    uint8_t Raw = static_cast<uint8_t>(Data[Pos++]);
    if (Raw > Max)
      return fail(What);
    V = static_cast<E>(Raw);
    return true;
  }

  bool getBool(bool &V) {
    if (Pos >= Data.size())
      return fail("truncated bool");
    uint8_t Raw = static_cast<uint8_t>(Data[Pos++]);
    if (Raw > 1)
      return fail("bad bool");
    V = Raw != 0;
    return true;
  }

  bool getStr(std::string &S) {
    uint64_t Len;
    if (!getVar(Len))
      return false;
    if (Len > Data.size() - Pos)
      return fail("truncated string");
    S.assign(Data, Pos, static_cast<size_t>(Len));
    Pos += static_cast<size_t>(Len);
    return true;
  }

  bool getLocation(Location &Loc) {
    uint8_t Tag;
    if (Pos >= Data.size())
      return fail("truncated location tag");
    Tag = static_cast<uint8_t>(Data[Pos++]);
    switch (Tag) {
    case 0: {
      JSVarLoc V;
      if (!getVar(V.Container) || !getStr(V.Name))
        return false;
      Loc = std::move(V);
      return true;
    }
    case 1: {
      HtmlElemLoc H;
      if (!getNarrow(H.Doc, "bad document id") ||
          !getEnum(H.Kind, static_cast<uint8_t>(ElemKeyKind::ByTag),
                   "bad elem key kind") ||
          !getNarrow(H.Node, "bad node id") || !getStr(H.Key))
        return false;
      Loc = std::move(H);
      return true;
    }
    case 2: {
      EventHandlerLoc E;
      if (!getNarrow(E.Target, "bad node id") || !getVar(E.TargetObject) ||
          !getStr(E.EventType) || !getVar(E.HandlerId))
        return false;
      Loc = std::move(E);
      return true;
    }
    default:
      return fail("bad location tag");
    }
  }

  /// \p V2 selects the location encoding: a varint id into \p Interner's
  /// already-decoded table (range-checked), or a WRT1 inline location
  /// that gets interned on the fly.
  bool getAccess(Access &A, LocationInterner &Interner, bool V2) {
    if (!getEnum(A.Kind, static_cast<uint8_t>(AccessKind::Write),
                 "bad access kind") ||
        !getEnum(A.Origin, static_cast<uint8_t>(AccessOrigin::HandlerFire),
                 "bad access origin") ||
        !getNarrow(A.Op, "bad op id"))
      return false;
    if (V2) {
      uint32_t Id;
      if (!getNarrow(Id, "bad location id"))
        return false;
      if (Id >= Interner.size())
        return fail("location id out of range");
      A.Loc = Id;
    } else {
      Location Loc;
      if (!getLocation(Loc))
        return false;
      A.Loc = Interner.intern(Loc);
    }
    return getStr(A.Detail);
  }

  bool getOperation(Operation &Op) {
    int64_t DispatchIndex = 0;
    if (!getEnum(Op.Kind, static_cast<uint8_t>(OperationKind::UserAction),
                 "bad operation kind") ||
        !getNarrow(Op.Doc, "bad document id") ||
        !getNarrow(Op.Subject, "bad node id") || !getStr(Op.EventType) ||
        !getZig(DispatchIndex) || !getStr(Op.Label) ||
        !getEnum(Op.Trigger, static_cast<uint8_t>(TriggerKind::User),
                 "bad trigger kind") ||
        !getStr(Op.TriggerKey))
      return false;
    if (DispatchIndex < INT32_MIN || DispatchIndex > INT32_MAX)
      return fail("bad dispatch index");
    Op.DispatchIndex = static_cast<int32_t>(DispatchIndex);
    return true;
  }

  bool fail(const char *Message) {
    if (ErrorMessage.empty())
      ErrorMessage = strFormat("%s at offset %zu", Message, Pos);
    return false;
  }

  const std::string &error() const { return ErrorMessage; }

private:
  const std::string &Data;
  size_t Pos;
  std::string ErrorMessage;
};

} // namespace

namespace {

/// Everything after the magic + optional location table is shared between
/// the two formats, modulo how an access names its location.
template <typename AccessFn>
void putEvents(std::string &Out, const std::vector<TraceEvent> &Events,
               AccessFn PutAccess) {
  putVar(Out, Events.size());
  for (const TraceEvent &E : Events) {
    putU8(Out, static_cast<uint8_t>(E.K));
    switch (E.K) {
    case TraceEvent::Kind::OpCreated:
      putVar(Out, E.Op);
      putOperation(Out, E.Meta);
      break;
    case TraceEvent::Kind::OpBegin:
      putVar(Out, E.Op);
      break;
    case TraceEvent::Kind::OpEnd:
      putVar(Out, E.Op);
      putU8(Out, E.Crashed ? 1 : 0);
      break;
    case TraceEvent::Kind::HbEdge:
      putVar(Out, E.Op);
      putVar(Out, E.Op2);
      putU8(Out, static_cast<uint8_t>(E.Rule));
      break;
    case TraceEvent::Kind::MemAccess:
      PutAccess(Out, E.Mem);
      break;
    case TraceEvent::Kind::Dispatch:
      putVar(Out, E.Target);
      putVar(Out, E.TargetObject);
      putStr(Out, E.EventType);
      putZig(Out, E.DispatchIndex);
      putVar(Out, E.Op);
      putVar(Out, E.Op2);
      break;
    }
  }
}

} // namespace

std::string TraceLog::serialize() const {
  std::string Out;
  Out.append(MagicV2, sizeof(MagicV2));
  putVar(Out, Interner.size());
  for (LocId Id = 0; Id < Interner.size(); ++Id)
    putLocation(Out, Interner.resolve(Id));
  putEvents(Out, Events,
            [](std::string &Buf, const Access &A) { putAccess(Buf, A); });
  return Out;
}

std::string TraceLog::serializeLegacyWrt1() const {
  std::string Out;
  Out.append(MagicV1, sizeof(MagicV1));
  putEvents(Out, Events, [this](std::string &Buf, const Access &A) {
    putAccessLegacy(Buf, A, Interner);
  });
  return Out;
}

bool TraceLog::deserialize(const std::string &Bytes, TraceLog &Out,
                           std::string *Error) {
  Out.clear();
  auto Fail = [&](const std::string &Message) {
    Out.clear();
    if (Error)
      *Error = Message;
    return false;
  };
  bool V2 = false;
  if (Bytes.size() >= sizeof(MagicV2) &&
      std::memcmp(Bytes.data(), MagicV2, sizeof(MagicV2)) == 0)
    V2 = true;
  else if (Bytes.size() < sizeof(MagicV1) ||
           std::memcmp(Bytes.data(), MagicV1, sizeof(MagicV1)) != 0)
    return Fail("not a WebRacer trace (bad magic)");
  Reader R(Bytes, sizeof(MagicV2));
  if (V2) {
    // The location string table, in LocId order.
    uint64_t LocCount;
    if (!R.getVar(LocCount))
      return Fail(R.error());
    for (uint64_t I = 0; I < LocCount; ++I) {
      Location Loc;
      if (!R.getLocation(Loc))
        return Fail(R.error());
      if (Out.Interner.intern(Loc) != I)
        return Fail("duplicate location in string table");
    }
  }
  uint64_t Count;
  if (!R.getVar(Count))
    return Fail(R.error());
  Out.Events.reserve(static_cast<size_t>(Count));
  // The structure replay relies on: creation ids run 1, 2, ...; an edge
  // joins two created operations, older to newer; an access names a
  // created operation; and every in-edge of an operation arrives before
  // any access by it or a newer one, since the lazy clock indexes build
  // an operation's clock at such an access.
  OpId Created = InvalidOpId;
  OpId Accessed = InvalidOpId; ///< Highest operation an access named.
  for (uint64_t I = 0; I < Count; ++I) {
    TraceEvent E;
    if (!R.getEnum(E.K, static_cast<uint8_t>(EventKind::Dispatch),
                   "bad event kind"))
      return Fail(R.error());
    bool Ok = true;
    switch (E.K) {
    case EventKind::OpCreated:
      Ok = R.getNarrow(E.Op, "bad op id") &&
           (E.Op == Created + 1 || R.fail("operation id out of sequence")) &&
           R.getOperation(E.Meta);
      Created = E.Op;
      break;
    case EventKind::OpBegin:
      Ok = R.getNarrow(E.Op, "bad op id");
      break;
    case EventKind::OpEnd:
      Ok = R.getNarrow(E.Op, "bad op id") && R.getBool(E.Crashed);
      break;
    case EventKind::HbEdge:
      Ok = R.getNarrow(E.Op, "bad op id") &&
           R.getNarrow(E.Op2, "bad op id") &&
           R.getEnum(E.Rule, static_cast<uint8_t>(HbRule::RProgram),
                     "bad hb rule") &&
           ((E.Op != InvalidOpId && E.Op < E.Op2 && E.Op2 <= Created) ||
            R.fail("edge endpoints out of range")) &&
           (E.Op2 > Accessed ||
            R.fail("edge into an operation after an access by it or a "
                   "newer one"));
      break;
    case EventKind::MemAccess:
      Ok = R.getAccess(E.Mem, Out.Interner, V2) &&
           ((E.Mem.Op != InvalidOpId && E.Mem.Op <= Created) ||
            R.fail("access by an operation never created"));
      E.Op = E.Mem.Op;
      Accessed = std::max(Accessed, E.Op);
      break;
    case EventKind::Dispatch:
      int64_t DispatchIndex;
      Ok = R.getNarrow(E.Target, "bad node id") &&
           R.getVar(E.TargetObject) && R.getStr(E.EventType) &&
           R.getZig(DispatchIndex) && R.getNarrow(E.Op, "bad op id") &&
           R.getNarrow(E.Op2, "bad op id");
      if (Ok) {
        if (DispatchIndex < INT32_MIN || DispatchIndex > INT32_MAX)
          return Fail("bad dispatch index");
        E.DispatchIndex = static_cast<int32_t>(DispatchIndex);
      }
      break;
    }
    if (!Ok)
      return Fail(R.error());
    Out.Events.push_back(std::move(E));
  }
  if (!R.atEnd())
    return Fail("trailing bytes after last event");
  return true;
}
