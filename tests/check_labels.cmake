# Every label a gtest executable is declared with must select every test that
# executable registers. Reads the declarations emi_test() writes to MANIFEST
# (one line per labelled executable: its name, then its labels) and compares,
# per executable, the tests `ctest -N` lists in total with the tests
# `ctest -N -L ^label$` lists for each declared label.
#
#   cmake -DCTEST=<ctest> -DBUILD_DIR=<build tree> -DMANIFEST=<file>
#         -P check_labels.cmake

# The executable name of every test the given ctest selection lists, one
# list entry per test.
function(selected_executables out)
  execute_process(COMMAND ${CTEST} --test-dir ${BUILD_DIR} -N -V ${ARGN}
                  OUTPUT_VARIABLE text RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ctest -N ${ARGN} failed (${rc})")
  endif()
  string(REGEX MATCHALL "[0-9]+: Test command: [^ \n]+" commands "${text}")
  set(exes)
  foreach(c IN LISTS commands)
    string(REGEX REPLACE "^.*Test command: " "" exe "${c}")
    get_filename_component(exe "${exe}" NAME)
    list(APPEND exes "${exe}")
  endforeach()
  set(${out} "${exes}" PARENT_SCOPE)
endfunction()

function(count_of out list_var exe)
  set(matches ${${list_var}})
  list(FILTER matches INCLUDE REGEX "^${exe}$")
  list(LENGTH matches n)
  set(${out} ${n} PARENT_SCOPE)
endfunction()

file(STRINGS "${MANIFEST}" declarations)
selected_executables(all)
set(failures 0)
set(checked 0)
foreach(decl IN LISTS declarations)
  string(REPLACE " " ";" decl "${decl}")
  list(POP_FRONT decl exe)
  count_of(total all "${exe}")
  if(total EQUAL 0)
    message(SEND_ERROR "${exe}: no discovered tests (not built?)")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  foreach(label IN LISTS decl)
    if(NOT DEFINED selected_${label})
      selected_executables(selected_${label} -L "^${label}$")
    endif()
    count_of(n selected_${label} "${exe}")
    math(EXPR checked "${checked} + 1")
    if(NOT n EQUAL total)
      message(SEND_ERROR
              "${exe}: label '${label}' selects ${n} of its ${total} tests")
      math(EXPR failures "${failures} + 1")
    endif()
  endforeach()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} declared label(s) lose tests")
endif()
message(STATUS "${checked} declared labels select all of their executables' tests")
