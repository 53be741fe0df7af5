; bitonic2.asm — two-processor bitonic compare-split (paper Figure 4
; structure): each PE generates four pseudo-random values, sorts them
; locally (insertion sort), element-wise remote-reads the partner's block
; through split-phase reads and merges, PE0 keeping the low half and PE1
; the high half. Per PE: input/local block at 0..3, received partner
; elements at 8..11, merged output at 16..19; PE0[16..19] ++ PE1[16..19]
; is the sorted concatenation.
;
;   go run ./cmd/emxasm -run -p 2 -spmd -dump 16:4 examples/asm/bitonic2.asm
main:
    ; ---- generate 4 values: a[i] = (pe*17 + i*i*13 + 5) mod 97 ----
    li   r1, 0            ; i
    li   r2, 17
    mul  r2, pe, r2       ; pe*17
gen:
    mul  r3, r1, r1
    muli r3, r3, 13
    add  r3, r3, r2
    addi r3, r3, 5
    ; r3 mod 97 via repeated subtraction (values are small)
    li   r4, 97
mod:
    blt  r3, r4, modok
    sub  r3, r3, r4
    j    mod
modok:
    st   r3, 0(r1)
    addi r1, r1, 1
    slti r5, r1, 4
    bne  r5, zero, gen

    ; ---- local insertion sort of a[0..3] ----
    li   r1, 1            ; i
outer:
    ld   r2, 0(r1)        ; key
    addi r3, r1, -1       ; j
inner:
    slti r5, r3, 0
    bne  r5, zero, place
    ld   r4, 0(r3)
    slt  r5, r2, r4       ; key < a[j] ?
    beq  r5, zero, place
    addi r6, r3, 1
    st   r4, 0(r6)        ; a[j+1] = a[j]
    addi r3, r3, -1
    j    inner
place:
    addi r6, r3, 1
    st   r2, 0(r6)        ; a[j+1] = key
    addi r1, r1, 1
    slti r5, r1, 4
    bne  r5, zero, outer

    ; ---- read the partner's block, element by element ----
    xori r7, pe, 1        ; partner PE
    li   r1, 0            ; k
read:
    gaddr r8, r7, r1
    rread r9, r8          ; split-phase: suspend, switch, resume
    addi  r2, r1, 8
    st    r9, 0(r2)       ; recv[k]
    addi  r1, r1, 1
    slti  r5, r1, 4
    bne   r5, zero, read

    ; ---- merge: PE0 keeps the low half, PE1 the high half ----
    bne  pe, zero, high
    ; keep-low: ascending cursors
    li   r1, 0            ; i over a[]
    li   r2, 8            ; j over recv[]
    li   r3, 16           ; out cursor
    li   r10, 20          ; out end
low:
    ld   r4, 0(r1)
    ld   r5, 0(r2)
    slt  r6, r5, r4       ; recv < local ?
    bne  r6, zero, takeR
    st   r4, 0(r3)
    addi r1, r1, 1
    j    lowNext
takeR:
    st   r5, 0(r3)
    addi r2, r2, 1
lowNext:
    addi r3, r3, 1
    blt  r3, r10, low
    halt

high:
    ; keep-high: descending cursors
    li   r1, 3            ; i over a[]
    li   r2, 11           ; j over recv[]
    li   r3, 19           ; out cursor
    li   r10, 16
hi:
    ld   r4, 0(r1)
    ld   r5, 0(r2)
    slt  r6, r4, r5       ; local < recv ?
    bne  r6, zero, takeRh
    st   r4, 0(r3)
    addi r1, r1, -1
    j    hiNext
takeRh:
    st   r5, 0(r3)
    addi r2, r2, -1
hiNext:
    addi r3, r3, -1
    bge  r3, r10, hi
    halt
