//===- Arena.h - Bump allocation for one translation unit -------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory one translation unit's AST nodes, types and names live in,
/// after LLVM's BumpPtrAllocator. A BumpArena hands out storage from
/// fixed-size malloc'd chunks and frees all of them at once; nothing in it
/// is destroyed one object at a time, so only trivially destructible
/// objects go in it. A NodeList is a fixed-length array in an arena.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_ARENA_H
#define STQ_CMINUS_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

namespace stq::cminus {

class BumpArena {
public:
  BumpArena() = default;
  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;
  ~BumpArena();

  void *allocate(size_t Size, size_t Align) {
    uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
    if (Cur && P + Size <= reinterpret_cast<uintptr_t>(End)) {
      Cur = reinterpret_cast<char *>(P + Size);
      return reinterpret_cast<void *>(P);
    }
    return allocateSlow(Size, Align);
  }

  /// A copy of \p S that lives as long as the arena.
  std::string_view copyString(std::string_view S) {
    if (S.empty())
      return {};
    char *P = static_cast<char *>(allocate(S.size(), 1));
    std::memcpy(P, S.data(), S.size());
    return {P, S.size()};
  }

  /// True when \p P points into storage this arena handed out.
  bool contains(const void *P) const;

private:
  /// Chunks stay below glibc's mmap threshold (128 KB), so a freed chunk
  /// goes back to the heap and the next TU on the same thread reuses it
  /// instead of mapping and faulting in fresh pages.
  static constexpr size_t ChunkSize = 64 * 1024;

  struct Chunk {
    Chunk *Next;
    size_t Size;
  };

  void *allocateSlow(size_t Size, size_t Align);

  Chunk *Chunks = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;
};

/// A fixed-length array allocated in a TU's arena (see
/// ASTContext::list). Trivially destructible; its elements stay writable
/// so passes can rewrite them in place.
template <typename T> class NodeList {
public:
  NodeList() = default;

  T *begin() const { return Data; }
  T *end() const { return Data + Size; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  T &operator[](size_t I) const { return Data[I]; }
  T &back() const { return Data[Size - 1]; }

private:
  friend class ASTContext;
  NodeList(T *Data, size_t Size) : Data(Data), Size(Size) {}

  T *Data = nullptr;
  size_t Size = 0;
};

} // namespace stq::cminus

#endif // STQ_CMINUS_ARENA_H
