#!/usr/bin/env bash
# List the non-template amrio:: functions that libamrio defines but that no
# program links, and fail unless tools/reachability.allow keeps each one.
#
# Usage:
#   tools/reachability.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build-reach. The script configures it with
# -O0 -ffunction-sections -fdata-sections and links with -Wl,--gc-sections,
# then builds the library, every example and bench (the tests stay out), and
# the perfbench driver, which compiles ../src on its own. At -O0 calls stay
# out of line, so a library function whose section the linker dropped from
# every program is one that no program calls. The list is `nm -C` of
# libamrio.a minus the symbols of those binaries, cut down to non-template
# functions in namespace amrio.
#
# Every example and bench must build; the script exits 2 when one did not
# (bench/micro_substrate needs Google Benchmark).
#
# tools/reachability.allow keeps a symbol on purpose: one line per symbol,
# `<demangled signature>  # <reason>`. The script exits non-zero when a
# listed symbol has no allow line, when an allow line gives no reason, or
# when an allow line is stale: its symbol is gone, or a program now reaches
# it.
#
# Limits: a header-only inline function that nothing calls is never emitted,
# so it cannot show up here. Overloads are judged per signature.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
allow="$root/tools/reachability.allow"
build="${1:-$root/build-reach}"
mkdir -p "$build"
build=$(cd "$build" && pwd)

flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
step() {  # run a build step quietly; show its log when it fails
  "$@" > "$build/step.log" 2>&1 ||
    { tail -40 "$build/step.log"; echo "reachability: failed: $*"; exit 1; }
}
step cmake -S "$root" -B "$build" "${flags[@]}" \
  -DCMAKE_DISABLE_FIND_PACKAGE_GTest=ON
step cmake --build "$build" -j4
step cmake -S "$root/perfbench" -B "$build/perfbench" "${flags[@]}"
step cmake --build "$build/perfbench" -j4

# Every program must be built: what only a missing program calls would show
# up as unreached. bench/micro_substrate builds only with Google Benchmark.
programs=("$build/perfbench/perfbench")
for src in "$root"/examples/*.cpp "$root"/bench/*.cpp; do
  name=$(basename "$src" .cpp)
  if [ ! -x "$build/$name" ]; then
    need=""
    [ "$name" = micro_substrate ] && need=" (it needs Google Benchmark)"
    echo "reachability: program $name was not built$need; cannot judge" \
         "reachability without it"
    exit 2
  fi
  programs+=("$build/$name")
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Demangled names with the std::string and std::vector spellings shortened,
# so allow lines stay readable. Every name list goes through the same filter.
symbols() {
  nm -C --defined-only "$@" | sed -E \
    -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
    -e 's/std::basic_string_view<char, std::char_traits<char> >/std::string_view/g' \
    -e 's/std::vector<([^<>]*), std::allocator<\1> >/std::vector<\1>/g' \
    -e 's/\[abi:cxx11\]//g'
}

# Library functions: defined text symbols (T, W) in namespace amrio. Symbolic
# and conversion operators are masked first; then a '<' before the parameter
# list marks a template instance, '{' a lambda, and a space the return type
# that only template instances print.
symbols "$build/libamrio.a" |
  awk '$2 ~ /^[TW]$/ { sub(/^[0-9a-f]+ [TW] /, ""); print }' |
  awk '/^amrio::/ {
         head = $0
         gsub(/\(anonymous namespace\)/, "anon", head)
         gsub(/operator(\(\)|<<=|<<|<=>|<=|<|->\*|->|>>=|>>|>=|>| [^(]*)/,
              "operator@", head)
         head = substr(head, 1, index(head, "(") - 1)
         if (head !~ /[<{ ]/) print
       }' | sort -u > "$work/library"
for bin in "${programs[@]}"; do
  symbols "$bin" | sed -E 's/^[0-9a-f]+ . //'
done | sort -u > "$work/programs"
comm -23 "$work/library" "$work/programs" > "$work/unreached"

# Allow lines: `<symbol>  # <reason>`; blank lines and '#' lines are comments.
bad=0
: > "$work/allowed"
while IFS= read -r line || [ -n "$line" ]; do
  case "$line" in ''|'#'*) continue ;; esac
  sym=$(printf '%s' "${line%%#*}" | sed -E 's/[[:space:]]+$//')
  reason=$(printf '%s' "${line#*#}" | sed -E 's/^[[:space:]]+//')
  if [ "$sym" = "$line" ] || [ -z "$reason" ]; then
    echo "reachability: allow line without a reason: $line"
    bad=1
  fi
  printf '%s\n' "$sym" >> "$work/allowed"
done < "$allow"
sort -u -o "$work/allowed" "$work/allowed"

echo "reachability: $(wc -l < "$work/unreached") amrio:: functions in" \
     "libamrio.a that no program links (${#programs[@]} programs):"
sed 's/^/  /' "$work/unreached"
comm -23 "$work/unreached" "$work/allowed" > "$work/missing"
comm -13 "$work/unreached" "$work/allowed" > "$work/stale"
if [ -s "$work/missing" ]; then
  echo "reachability: not on tools/reachability.allow (delete the code, or" \
       "allow it with a reason):"
  sed 's/^/  /' "$work/missing"
  bad=1
fi
if [ -s "$work/stale" ]; then
  echo "reachability: stale allow lines (the symbol is gone or a program" \
       "now reaches it):"
  sed 's/^/  /' "$work/stale"
  bad=1
fi
exit "$bad"
