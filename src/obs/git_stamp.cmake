# Writes OUT, a header that defines NWC_GIT_SHA (short SHA of HEAD) and
# NWC_GIT_DIRTY (1 when tracked files differ from HEAD) for the source tree
# at ROOT. The nwc_git_stamp target in src/CMakeLists.txt runs it on every
# build:
#
#   cmake -DROOT=<source tree> -DOUT=<header> -P git_stamp.cmake
#
# OUT is rewritten only when a value changes, so run_meta.cpp recompiles
# after a commit or an edit and at no other time. Outside a git checkout of
# ROOT itself (an exported tarball, or a copy nested in another repository)
# the SHA is "unknown" and the tree counts as dirty: nothing vouches that the
# binary matches a commit.
set(sha "unknown")
set(dirty 1)
get_filename_component(root "${ROOT}" REALPATH)
execute_process(COMMAND git rev-parse --show-toplevel
  WORKING_DIRECTORY "${root}" RESULT_VARIABLE rc
  OUTPUT_VARIABLE top OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
if(rc EQUAL 0)
  get_filename_component(top "${top}" REALPATH)
endif()
if(rc EQUAL 0 AND top STREQUAL root)
  execute_process(COMMAND git rev-parse --short HEAD
    WORKING_DIRECTORY "${root}" RESULT_VARIABLE rc
    OUTPUT_VARIABLE head OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
  execute_process(COMMAND git status --porcelain --untracked-files=no
    WORKING_DIRECTORY "${root}" RESULT_VARIABLE status_rc
    OUTPUT_VARIABLE status OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
  if(rc EQUAL 0 AND status_rc EQUAL 0 AND head)
    set(sha "${head}")
    if(status STREQUAL "")
      set(dirty 0)
    endif()
  endif()
endif()

set(content "#define NWC_GIT_SHA \"${sha}\"\n#define NWC_GIT_DIRTY ${dirty}\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
