#!/bin/sh
# Checks that .github/workflows/ci.yml and tools/ci_local.sh define the
# same CI jobs; registered with ctest by tests/CMakeLists.txt:
#
#   ci_definition_test.sh <repo-root> <work-dir>
#
# - the ci.yml matrix lists exactly the jobs ci_local.sh dispatches
#   (its all_jobs list), each once, and runs them through ci_local.sh;
#   each job has one job_<name> function and every such function is
#   listed;
# - clang-tidy is the only ci.yml job outside the matrix;
# - once those hold, `ci_local.sh --job` with an unknown name exits 2
#   and creates no build directory.

set -u
root=$1
work=$2
yml=$root/.github/workflows/ci.yml
script=$root/tools/ci_local.sh

status=0
fail() {
    echo "FAIL: $*"
    status=1
}

# lines <text>: the words of <text>, one a line.
lines() {
    echo "$1" | tr -s ' \n' '\n\n' | sed '/^$/d'
}

script_jobs=$(lines "$(sed -n '/^all_jobs="/,/"$/p' "$script" |
    sed 's/^all_jobs=//; s/"//g')")
matrix_jobs=$(sed -n \
    '/^ *matrix:$/,/^ *steps:$/s/^ *- *\([a-z][a-z0-9-]*\) *$/\1/p' "$yml")
functions=$(sed -n 's/^job_\([a-z0-9_]*\)() {$/\1/p' "$script" | tr _ -)
yml_jobs=$(sed -n '/^jobs:/,$s/^  \([a-z][a-z0-9_-]*\):.*$/\1/p' "$yml")

[ -n "$script_jobs" ] || fail "no all_jobs list in $script"
[ -n "$matrix_jobs" ] || fail "no job matrix in $yml"
for list in script_jobs matrix_jobs functions; do
    eval "names=\$$list"
    dup=$(echo "$names" | sort | uniq -d)
    [ -z "$dup" ] || fail "$list names a job twice:" $dup
done
[ "$(echo "$script_jobs" | sort)" = "$(echo "$matrix_jobs" | sort)" ] ||
    fail "ci.yml matrix (" $matrix_jobs ") differs from ci_local.sh" \
        "(" $script_jobs ")"
[ "$(echo "$script_jobs" | sort)" = "$(echo "$functions" | sort)" ] ||
    fail "job_* functions (" $functions ") differ from all_jobs" \
        "(" $script_jobs ")"
grep -q 'tools/ci_local.sh --job ${{ matrix.job }} build' "$yml" ||
    fail "the ci.yml matrix job does not run tools/ci_local.sh --job"

[ "$(grep -c '^ *matrix:$' "$yml")" -eq 1 ] ||
    fail "ci.yml needs exactly one job matrix"
others=$(echo "$yml_jobs" | grep -v '^clang-tidy$')
[ "$(echo "$yml_jobs" | grep -c '^clang-tidy$')" -eq 1 ] ||
    fail "ci.yml has no clang-tidy job"
[ "$(echo "$others" | grep -c .)" -eq 1 ] ||
    fail "ci.yml jobs besides clang-tidy and the matrix:" $others

if [ "$status" -eq 0 ]; then
    rm -rf "$work"
    sh "$script" --job nope "$work" 2> /dev/null
    got=$?
    [ "$got" -eq 2 ] || fail "ci_local.sh --job nope exited $got, not 2"
    [ ! -e "$work" ] || fail "ci_local.sh --job nope created $work"
fi
exit $status
