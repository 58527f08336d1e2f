package targets

// r2000Maril models the MIPS R2000: a single-issue five-stage pipeline
// with a coprocessor-1 floating point unit, branch-compare instructions
// (beq/bne plus slt for relations), a floating point condition flag
// (modeled as the one-register set cc) and one branch delay slot.
// Latencies follow the R2000/R2010 data sheets: 2-cycle loads, 2-cycle
// FP add, 5-cycle FP multiply, 19-cycle FP divide, 12/35-cycle integer
// multiply/divide.
const r2000Maril = `
%machine R2000;

declare {
    %reg r[0:31] (int, ptr);        /* general registers */
    %reg f[0:15] (double);          /* CP1 registers (as double pairs) */
    %reg cc[0:0] (int);             /* FP condition flag */
    %resource IF, RD, ALU, MEM, WB; /* integer pipeline */
    %resource FA1, FA2;             /* FP adder */
    %resource FM1, FM2, FM3;        /* FP multiplier */
    %resource FDIV;                 /* FP divider (not pipelined) */
    %resource MDU;                  /* integer multiply/divide unit */
    %def imm16 [-32768:32767];
    %def uimm16 [0:65535];
    %def zero [0:0];
    %def addr32 [-2147483648:2147483647] +addr;
    %label rlab [-131072:131071] +relative;
    %label flab [-134217728:134217727];
    %memory m[0:2147483647];
}

cwvm {
    %general (int, ptr) r;
    %general (double) f;
    %allocable r[2:25], f[1:15];
    %calleesave r[16:23], f[10:15];
    %sp r[29] +down;
    %fp r[30] +down;
    %retaddr r[31];
    %hard r[0] 0;
    %arg (int) r[4] 1;
    %arg (int) r[5] 2;
    %arg (int) r[6] 3;
    %arg (int) r[7] 4;
    %arg (double) f[6] 1;     /* doubles consume two 4-byte slots (O32) */
    %arg (double) f[7] 3;
    %result r[2] (int);
    %result f[0] (double);
    %stackarg 16;
}

instr {
    /* Loads and stores; loads have the architectural 1-cycle delay. */
    %instr lw r, r, #imm16 {$1 = m[$2 + $3];} [IF; RD; ALU; MEM; WB] (1,2,0)
    %instr lb r, r, #imm16 (char) {$1 = m[$2 + $3];} [IF; RD; ALU; MEM; WB] (1,2,0)
    %instr lh r, r, #imm16 (short) {$1 = m[$2 + $3];} [IF; RD; ALU; MEM; WB] (1,2,0)
    %instr l.d f, r, #imm16 (double) {$1 = m[$2 + $3];} [IF; RD; ALU; MEM; WB] (1,2,0)
    %instr sw r, r, #imm16 {m[$2 + $3] = $1;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr sb r, r, #imm16 (char) {m[$2 + $3] = $1;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr sh r, r, #imm16 (short) {m[$2 + $3] = $1;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr s.d f, r, #imm16 (double) {m[$2 + $3] = $1;} [IF; RD; ALU; MEM; WB] (1,1,0)

    /* Integer arithmetic. */
    %instr addiu r, r, #imm16 {$1 = $2 + $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr addu r, r, r {$1 = $2 + $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr subu r, r, r {$1 = $2 - $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr negu r, r {$1 = -$2;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr mul r, r, r {$1 = $2 * $3;} [IF; RD; MDU; MDU; MDU; MDU; MDU; MDU; MDU; MDU; MDU; MDU; MDU; MDU] (1,12,0)
    %instr div r, r, r {$1 = $2 / $3;} [IF; RD; MDU] (1,35,0)
    %instr rem r, r, r {$1 = $2 % $3;} [IF; RD; MDU] (1,35,0)
    %instr and r, r, r {$1 = $2 & $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr andi r, r, #uimm16 {$1 = $2 & $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr or r, r, r {$1 = $2 | $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr ori r, r, #uimm16 {$1 = $2 | $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr xor r, r, r {$1 = $2 ^ $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr nor1 r, r {$1 = ~$2;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr sllv r, r, r {$1 = $2 << $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr sll r, r, #imm16 {$1 = $2 << $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr srav r, r, r {$1 = $2 >> $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr sra r, r, #imm16 {$1 = $2 >> $3;} [IF; RD; ALU; MEM; WB] (1,1,0)

    /* Constants and addresses. */
    %instr li r, #imm16 {$1 = $2;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr lui r, #any {$1 = high($2);} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr oril r, r, #any {$1 = $2 | low($3);} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr la r, #addr32 {$1 = $2;} [IF; RD; ALU; MEM; WB] (1,2,0)

    /* Relational values (only < is needed; glue swaps the rest). */
    %instr slti r, r, #imm16 {$1 = $2 < $3;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %instr slt r, r, r {$1 = $2 < $3;} [IF; RD; ALU; MEM; WB] (1,1,0)

    /* Floating point. */
    %instr add.d f, f, f (double) {$1 = $2 + $3;} [IF; RD; FA1; FA2] (1,2,0)
    %instr sub.d f, f, f (double) {$1 = $2 - $3;} [IF; RD; FA1; FA2] (1,2,0)
    %instr mul.d f, f, f (double) {$1 = $2 * $3;} [IF; RD; FM1; FM2; FM3; FM3; FM3] (1,5,0)
    %instr div.d f, f, f (double) {$1 = $2 / $3;} [IF; RD; FDIV] (1,19,0)
    %instr neg.d f, f (double) {$1 = -$2;} [IF; RD; FA1] (1,1,0)
    %instr cvt.d.w f, r (double) {$1 = (double)$2;} [IF; RD; FA1; FA2; FA2] (1,4,0)
    %instr trunc.w.d r, f (int) {$1 = (int)$2;} [IF; RD; FA1; FA2; FA2] (1,4,0)

    /* FP compares set the condition flag; bc1t/bc1f branch on it. */
    %instr c.lt.d cc[0], f, f {$1 = $2 < $3;} [IF; RD; FA1; FA2] (1,2,0)
    %instr c.le.d cc[0], f, f {$1 = $2 <= $3;} [IF; RD; FA1; FA2] (1,2,0)
    %instr c.eq.d cc[0], f, f {$1 = $2 == $3;} [IF; RD; FA1; FA2] (1,2,0)
    %instr bc1t cc[0], #rlab {if ($1 != 0) goto $2;} [IF; RD; ALU] (1,2,1)
    %instr bc1f cc[0], #rlab {if ($1 == 0) goto $2;} [IF; RD; ALU] (1,2,1)

    /* Integer branches: beq/bne against any register (r0 gives zero
       compares), plus the zero-relative forms. */
    %instr beq r, r, #rlab {if ($1 == $2) goto $3;} [IF; RD; ALU] (1,2,1)
    %instr bne r, r, #rlab {if ($1 != $2) goto $3;} [IF; RD; ALU] (1,2,1)
    %instr blez r, #rlab {if ($1 <= 0) goto $2;} [IF; RD; ALU] (1,2,1)
    %instr bgtz r, #rlab {if ($1 > 0) goto $2;} [IF; RD; ALU] (1,2,1)
    %instr bltz r, #rlab {if ($1 < 0) goto $2;} [IF; RD; ALU] (1,2,1)
    %instr bgez r, #rlab {if ($1 >= 0) goto $2;} [IF; RD; ALU] (1,2,1)
    %instr j #rlab {goto $1;} [IF; RD] (1,1,1)
    %instr jal #flab {call $1;} [IF; RD] (1,1,1)
    %instr jr.ra {ret;} [IF; RD] (1,1,1)
    %instr nop {;} [IF; RD] (1,1,0)

    /* Moves. */
    %move move r, r {$1 = $2;} [IF; RD; ALU; MEM; WB] (1,1,0)
    %move mov.d f, f (double) {$1 = $2;} [IF; RD; FA1] (1,1,0)

    /* Glue: relations through slt (swapping where needed) and big
       constants via lui/ori. Equality branches are native. */
    %glue r, r, #rlab { if ($1 < $2) goto $3 ==> if (($1 < $2) != 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 >= $2) goto $3 ==> if (($1 < $2) == 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 > $2) goto $3 ==> if (($2 < $1) != 0) goto $3; } if !fits($2, zero);
    %glue r, r, #rlab { if ($1 <= $2) goto $3 ==> if (($2 < $1) == 0) goto $3; } if !fits($2, zero);
    %glue f, f, #rlab { if ($1 < $2) goto $3 ==> if (($1 < $2) != 0) goto $3; }
    %glue f, f, #rlab { if ($1 <= $2) goto $3 ==> if (($1 <= $2) != 0) goto $3; }
    %glue f, f, #rlab { if ($1 == $2) goto $3 ==> if (($1 == $2) != 0) goto $3; }
    %glue f, f, #rlab { if ($1 != $2) goto $3 ==> if (($1 == $2) == 0) goto $3; }
    %glue f, f, #rlab { if ($1 > $2) goto $3 ==> if (($2 < $1) != 0) goto $3; }
    %glue f, f, #rlab { if ($1 >= $2) goto $3 ==> if (($2 <= $1) != 0) goto $3; }
    %glue #any { $1 ==> (high($1) | low($1)); } if !fits($1, imm16);
}
`
