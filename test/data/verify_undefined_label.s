; An undefined jump target: verify must report it with its line number
; and exit 1, not crash with an uncaught exception (used by the
; exit-code tests in test/dune).
main:
  jne nowhere
  hlt
