# Drive place -> drc -> route through the CLI, fail on any nonzero status.
set(LAYOUT ${CMAKE_CURRENT_BINARY_DIR}/smoke_layout.txt)
execute_process(COMMAND ${CLI} place ${DESIGN} -o ${LAYOUT} --compact --refine 500
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "emiplace place failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} drc ${DESIGN} ${LAYOUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "emiplace drc failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} route ${DESIGN} ${LAYOUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "emiplace route failed: ${rc}")
endif()

# --- Hardening: bad inputs must exit with the documented status (2 = usage /
# bad argument, 1 = parse or io failure) - never crash. A crash shows up as a
# non-numeric RESULT_VARIABLE ("Segmentation fault"), which fails the EQUAL.
function(expect_status expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected})
    message(FATAL_ERROR "expected exit ${expected}, got '${rc}' from: ${ARGN}\n${err}")
  endif()
endfunction()

# `version` exits 0 and names the binary version plus both on-disk format
# versions and whether the pair kernel carries per-ISA clones.
execute_process(COMMAND ${CLI} version OUTPUT_VARIABLE ver RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "emiplace version failed: ${rc}")
endif()
foreach(needle "emiplace " "EMICKPT 1" "EMIJOB 1" "kernel isa clones")
  if(NOT ver MATCHES "${needle}")
    message(FATAL_ERROR "version output missing '${needle}':\n${ver}")
  endif()
endforeach()

expect_status(2 ${CLI} place ${DESIGN} --refine 12abc)
expect_status(2 ${CLI} flow buck --points +60)
expect_status(2 ${CLI} place ${DESIGN} --refine -3)
expect_status(2 ${CLI} place ${DESIGN} --seed 99999999999999999999999)
expect_status(2 ${CLI} place ${DESIGN} --bogus-flag)
expect_status(2 ${CLI} svg ${DESIGN} ${LAYOUT} 9999)
expect_status(2 ${CLI} svg ${DESIGN} ${LAYOUT} zero)
expect_status(2 ${CLI} frobnicate ${DESIGN})

# Malformed design files come back as a structured parse diagnostic, exit 1.
set(BAD ${CMAKE_CURRENT_BINARY_DIR}/smoke_bad.design)
file(WRITE ${BAD} "boards 1\ncomponent C1 nan 4 2\n")
expect_status(1 ${CLI} info ${BAD})
file(WRITE ${BAD} "component C1 5\n")
expect_status(1 ${CLI} info ${BAD})
file(WRITE ${BAD} "boards 1000000\n")
expect_status(1 ${CLI} info ${BAD})
file(WRITE ${BAD} "boards 1\ncomponent C1 5 4 2 board=70000\n")
expect_status(1 ${CLI} info ${BAD})
expect_status(1 ${CLI} info ${CMAKE_CURRENT_BINARY_DIR}/definitely_missing.design)
file(WRITE ${BAD}.layout "place C1 1 2\n")
expect_status(1 ${CLI} drc ${DESIGN} ${BAD}.layout)
expect_status(1 ${CLI} route ${DESIGN} ${CMAKE_CURRENT_BINARY_DIR}/missing.layout)

# --- Flow subcommand: checkpoint after rule derivation (deterministic SIGKILL
# stand-in), resume, and check the resumed run's outputs are byte-identical to
# an uninterrupted run at the same settings.
set(CKPT ${CMAKE_CURRENT_BINARY_DIR}/smoke_flow.ckpt)
set(RESUMED ${CMAKE_CURRENT_BINARY_DIR}/smoke_resumed)
set(FRESH ${CMAKE_CURRENT_BINARY_DIR}/smoke_fresh)
file(REMOVE ${CKPT})
# Interrupted run exits 1 (partial result) but must not crash.
expect_status(1 ${CLI} flow buck --points 40 --checkpoint ${CKPT}
              --stop-after rule_derivation)
expect_status(0 ${CLI} flow buck --points 40 --checkpoint ${CKPT} --resume
              -o ${RESUMED})
expect_status(0 ${CLI} flow buck --points 40 -o ${FRESH})
foreach(part initial improved layout)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${RESUMED}_${part}.csv ${FRESH}_${part}.csv
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed flow ${part} output differs from fresh run")
  endif()
endforeach()

# Flow hardening: bad arguments are usage errors, corrupt checkpoints are
# structured rejections (exit 1), never crashes.
expect_status(2 ${CLI} flow teapot)
expect_status(2 ${CLI} flow buck --stop-after frobnication)
expect_status(2 ${CLI} flow buck --points 1)
expect_status(2 ${CLI} flow buck --resume)
expect_status(2 ${CLI} --fault-inject bogus flow buck)
expect_status(2 ${CLI} --fault-inject pool:notarate:1 flow buck)
expect_status(2 ${CLI} --fault-inject "pool:0.1:1,junk" flow buck)
expect_status(2 ${CLI} --fault-inject lu:0.5:-1 flow buck)
file(WRITE ${CKPT}.corrupt "EMICKPT 1 0000000000000000\ngarbage\n")
expect_status(1 ${CLI} flow buck --points 40 --checkpoint ${CKPT}.corrupt --resume)
expect_status(1 ${CLI} flow buck --points 40
              --checkpoint ${CMAKE_CURRENT_BINARY_DIR}/missing.ckpt --resume)

# Serve/client hardening: missing required flags are usage errors (exit 2),
# an unreachable daemon is a connection failure (exit 1), never a crash.
expect_status(2 ${CLI} serve)
expect_status(2 ${CLI} serve --socket /tmp/smoke_unused.sock)
expect_status(2 ${CLI} serve --socket /tmp/smoke_unused.sock --state-dir d --executors 0)
expect_status(2 ${CLI} submit)
expect_status(2 ${CLI} submit --socket /tmp/smoke_unused.sock teapot)
expect_status(2 ${CLI} status --socket /tmp/smoke_unused.sock)
expect_status(2 ${CLI} result --socket /tmp/smoke_unused.sock --job 1x)
expect_status(2 ${CLI} stats)
expect_status(1 ${CLI} stats --socket ${CMAKE_CURRENT_BINARY_DIR}/no_daemon.sock)
