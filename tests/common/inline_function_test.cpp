#include "common/inline_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/resource.hpp"

namespace ah::common {
namespace {

using VoidFn = InlineFunction<void()>;
using IntFn = InlineFunction<int(int, int)>;

// The scheduler's per-event copy cost is the size of these two types; a
// change that grows either shows up here before it shows up in a profile.
static_assert(sizeof(sim::EventFn) == 64,
              "EventFn: 48-byte buffer + invoke + manager pointers");
static_assert(sizeof(sim::Resource::Completion) == 32,
              "Completion: 16-byte buffer + invoke + manager pointers");

TEST(InlineFunctionTest, DefaultIsEmpty) {
  VoidFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunctionTest, CallsSmallLambda) {
  int hits = 0;
  VoidFn fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunctionTest, ForwardsArgumentsAndReturn) {
  IntFn add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(40, 2), 42);
}

TEST(InlineFunctionTest, SmallCaptureStaysInline) {
  struct Small {
    void* a;
    void* b;
    void operator()() {}
  };
  struct Big {
    char blob[128];
    void operator()() {}
  };
  static_assert(VoidFn::stores_inline<Small>());
  static_assert(!VoidFn::stores_inline<Big>());
}

TEST(InlineFunctionTest, HeapFallbackStillCalls) {
  struct Big {
    char blob[128] = {};
    int result = 7;
    int operator()(int a, int b) { return result + a + b; }
  };
  InlineFunction<int(int, int)> fn(Big{});
  EXPECT_EQ(fn(1, 2), 10);
}

TEST(InlineFunctionTest, MovePreservesTargetAndEmptiesSource) {
  int hits = 0;
  VoidFn source([&hits] { ++hits; });
  VoidFn destination(std::move(source));
  EXPECT_FALSE(static_cast<bool>(source));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(destination));
  destination();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunctionTest, MoveAssignmentDestroysPreviousTarget) {
  auto counter = std::make_shared<int>(0);
  VoidFn fn([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  fn = VoidFn([] {});
  EXPECT_EQ(counter.use_count(), 1);  // old closure destroyed
}

TEST(InlineFunctionTest, DestructorReleasesCapture) {
  auto counter = std::make_shared<int>(0);
  {
    VoidFn fn([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFunctionTest, HeapTargetReleasedExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  struct Big {
    std::shared_ptr<int> keep;
    char blob[120] = {};
    void operator()() {}
  };
  {
    VoidFn fn(Big{counter, {}});
    EXPECT_EQ(counter.use_count(), 2);
    VoidFn moved(std::move(fn));
    EXPECT_EQ(counter.use_count(), 2);  // ownership transferred, not copied
    moved();
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFunctionTest, HoldsMoveOnlyCallable) {
  auto owned = std::make_unique<int>(99);
  InlineFunction<int()> fn([p = std::move(owned)] { return *p; });
  EXPECT_EQ(fn(), 99);
}

TEST(InlineFunctionTest, ResetEmpties) {
  VoidFn fn([] {});
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunctionTest, WrapsStdFunction) {
  std::function<void()> wrapped;
  int hits = 0;
  wrapped = [&hits] { ++hits; };
  VoidFn fn(wrapped);  // copies the std::function into the buffer
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunctionTest, TrivialCaptureSurvivesManyMovesAndEmptiesSources) {
  std::uint64_t sum = 0;
  const std::uint64_t a = 0x1234'5678'9abc'def0;
  const std::int32_t b = -7;
  auto add = [&sum, a, b] { sum += a + static_cast<std::uint64_t>(b); };
  static_assert(VoidFn::relocates_trivially<decltype(add)>());
  std::array<VoidFn, 2> slots;
  slots[0] = VoidFn(add);
  for (int i = 0; i < 101; ++i) {
    VoidFn& from = slots[static_cast<std::size_t>(i % 2)];
    VoidFn& to = slots[static_cast<std::size_t>((i + 1) % 2)];
    if (i % 3 == 0) {
      to = std::move(from);
    } else {
      VoidFn hop(std::move(from));
      to = std::move(hop);
      EXPECT_FALSE(static_cast<bool>(hop));  // NOLINT(bugprone-use-after-move)
    }
    EXPECT_FALSE(static_cast<bool>(from));  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(static_cast<bool>(to));
  }
  slots[1]();  // 101 moves: the target ends in the odd slot
  EXPECT_EQ(sum, a + static_cast<std::uint64_t>(b));
}

TEST(InlineFunctionTest, NonTrivialCaptureMovedAndDestroyedExactlyOnce) {
  // A move-tracking member: only the object that owns the state counts
  // its destruction, so a skipped move or a double destroy both show.
  struct Probe {
    int* destroyed;
    bool owner = true;
    explicit Probe(int* counter) : destroyed(counter) {}
    Probe(Probe&& other) noexcept : destroyed(other.destroyed) {
      other.owner = false;
    }
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;
    Probe& operator=(Probe&&) = delete;
    ~Probe() {
      if (owner) ++*destroyed;
    }
  };
  using SizeFn = InlineFunction<std::size_t()>;
  auto counter = std::make_shared<int>(0);
  std::string text(64, 'q');  // past the small-string buffer (non-const: a
  // const capture would copy on move, which may throw, and go to the heap)
  int destroyed = 0;
  {
    auto bump = [counter, probe = Probe(&destroyed)] { ++*counter; };
    auto measure = [counter, text] { return text.size() + *counter; };
    static_assert(VoidFn::stores_inline<decltype(bump)>());
    static_assert(!VoidFn::relocates_trivially<decltype(bump)>());
    static_assert(SizeFn::stores_inline<decltype(measure)>());
    static_assert(!SizeFn::relocates_trivially<decltype(measure)>());
    VoidFn fn(std::move(bump));
    SizeFn sized(std::move(measure));
    EXPECT_EQ(counter.use_count(), 3);
    for (int i = 0; i < 50; ++i) {
      VoidFn next(std::move(fn));
      fn = std::move(next);
      SizeFn next_sized(std::move(sized));
      sized = std::move(next_sized);
    }
    EXPECT_EQ(counter.use_count(), 3);  // moved, never copied
    EXPECT_EQ(destroyed, 0);
    fn();
    EXPECT_EQ(sized(), text.size() + 1);
  }
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunctionTest, EmptyCaptureLambdaRelocates) {
  // An empty-capture lambda writes no byte of the buffer; the whole-buffer
  // copy of a trivial target must still read only initialised bytes (the
  // build's -Werror turns an indeterminate read into a compile error).
  static int calls = 0;
  calls = 0;
  auto empty = [] { ++calls; };
  static_assert(VoidFn::relocates_trivially<decltype(empty)>());
  VoidFn first(empty);
  VoidFn second(std::move(first));
  VoidFn third;
  third = std::move(second);
  EXPECT_FALSE(static_cast<bool>(first));   // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(second));  // NOLINT(bugprone-use-after-move)
  third();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace ah::common
