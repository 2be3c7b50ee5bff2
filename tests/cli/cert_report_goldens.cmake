# Exports the standard fleet with iotlsd, runs iotls_audit's §5 outputs over
# it and compares each byte for byte with its golden under tests/data:
# the six --certs report documents, the --certs text headline, and the
# certs report under a timeout fault schedule.
#
#   cmake -DIOTLSD=path/to/iotlsd -DIOTLS_AUDIT=path/to/iotls_audit
#         -DGOLDEN_DIR=tests/data/cert_reports -DWORK_DIR=scratch/dir
#         -P cert_report_goldens.cmake

file(MAKE_DIRECTORY "${WORK_DIR}")
set(prefix "${WORK_DIR}/fleet")
execute_process(COMMAND "${IOTLSD}" "--export-fleet=${prefix}" --wire
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "fleet export: exit ${code}\n${err}")
endif()
set(inputs "${prefix}-events.csv" "${prefix}-devices.csv")

# Each case: golden file name, then the iotls_audit flags.
set(cases
  "certs.json|--certs --report=certs"
  "chains.json|--certs --report=chains"
  "issuers.json|--certs --report=issuers"
  "ct.json|--certs --report=ct"
  "stacks.json|--certs --report=stacks"
  "dualstack.json|--certs --report=dualstack"
  "headline.txt|--certs"
  "certs_fault_seed7_timeout02.json|--certs --report=certs --fault-spec=seed=7,timeout=0.2")

set(failures "")
foreach(case IN LISTS cases)
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} golden)
  math(EXPR rest "${bar} + 1")
  string(SUBSTRING "${case}" ${rest} -1 flags)
  separate_arguments(flags UNIX_COMMAND "${flags}")
  execute_process(COMMAND "${IOTLS_AUDIT}" ${flags} ${inputs}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "iotls_audit ${flags}: exit ${code}\n${err}")
  endif()
  file(READ "${GOLDEN_DIR}/${golden}" want)
  if(NOT out STREQUAL want)
    file(WRITE "${WORK_DIR}/${golden}" "${out}")
    list(APPEND failures "${golden} (got ${WORK_DIR}/${golden})")
  endif()
endforeach()

if(failures)
  string(REPLACE ";" "\n  " failures "${failures}")
  message(FATAL_ERROR "output differs from golden:\n  ${failures}")
endif()
