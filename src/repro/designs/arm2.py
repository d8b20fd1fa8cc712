"""ARM-2-like hierarchical processor benchmark.

The original evaluation used a Verilog ARM-2 class-project model that is not
publicly available, so this module provides a from-scratch 16-bit
ARM-flavoured processor with the structural properties the evaluation needs:

- the four modules under test of the paper's tables (``arm_alu``,
  ``regfile_struct``, ``exc``, ``forward``) embedded two or more hierarchy
  levels deep (``regfile_struct`` deepest, and the largest),
- an ALU whose 13 control inputs are mostly driven from a hard-coded decode
  table keyed by a single opcode field (the Section 4.2 testability story),
- a register file loadable from the instruction/data pins (MOVI/LD) and
  storable back out (ST) — i.e. genuine PIERs,
- enough sequential depth (pipeline + flags + exception state) that flat
  processor-level ATPG struggles.

Hierarchy::

    arm                               (top: bus glue, IRQ synchroniser)
      u_core : core                   (level 1)
        u_dec : decode                (level 2: the hard-coded control table)
        u_exc : exc                   (level 2: exception unit — MUT)
        u_dp  : datapath              (level 2: pipeline)
          u_alu : arm_alu             (level 3 — MUT)
          u_fwd : forward             (level 3 — MUT)
          u_rb  : regbank             (level 3: write-port arbitration)
            u_rf : regfile_struct     (level 4 — MUT, structural reg file)
              u_r0..u_r7 : reg16      (level 5)
      u_mac : mac32                   (level 1: MAC coprocessor, own pins)
      u_uart : uart                   (level 1: serial unit, own pins)
      u_crc : crc16                   (level 1: CRC engine, own pins)
      u_tmr : timer                   (level 1: raises IRQs into the core)
      u_dma : dma_gen                 (level 1: address generator, own pins)

The peripheral blocks are what make the surrounding logic of each MUT large:
only the timer intersects the core MUTs' functional cones (through the IRQ
line into ``exc``), so FACTOR's extraction legitimately discards the rest —
the mechanism behind the paper's surrounding-gate reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hierarchy.design import Design
from repro.store import parse_verilog_cached


@dataclass(frozen=True)
class MutInfo:
    """One module-under-test of the paper's evaluation."""

    name: str           # module name
    path: str           # hierarchical instance prefix inside `arm`
    level: int          # embedding depth (top = 0)


ARM2_MUTS: List[MutInfo] = [
    MutInfo(name="arm_alu", path="u_core.u_dp.u_alu.", level=3),
    MutInfo(name="regfile_struct", path="u_core.u_dp.u_rb.u_rf.", level=4),
    MutInfo(name="exc", path="u_core.u_exc.", level=2),
    MutInfo(name="forward", path="u_core.u_dp.u_fwd.", level=3),
]


_ARM2_VERILOG = r"""
// ---------------------------------------------------------------------------
// arm_alu: 16-bit ALU with 13 one-hot-ish control inputs.
// ---------------------------------------------------------------------------
module arm_alu(
  input [15:0] a,
  input [15:0] b,
  input op_add,
  input op_sub,
  input op_and,
  input op_or,
  input op_xor,
  input op_shl,
  input op_shr,
  input op_pass_b,
  input inv_a,
  input inv_b,
  input cin,
  input flag_en,
  input cmp_mode,
  output [15:0] y,
  output z,
  output n,
  output c,
  output v
);
  wire [15:0] ea;
  wire [15:0] eb;
  assign ea = inv_a ? ~a : a;
  assign eb = inv_b ? ~b : b;

  wire [16:0] addres;
  wire [16:0] subres;
  assign addres = {1'b0, ea} + {1'b0, eb} + cin;
  assign subres = {1'b0, ea} - {1'b0, eb};

  wire [15:0] shlres;
  wire [15:0] shrres;
  assign shlres = ea << eb[3:0];
  assign shrres = ea >> eb[3:0];

  reg [15:0] y_core;
  reg c_core;
  reg v_core;
  always @(*) begin
    y_core = 16'h0000;
    c_core = 1'b0;
    v_core = 1'b0;
    if (op_add) begin
      y_core = addres[15:0];
      c_core = addres[16];
      v_core = (ea[15] == eb[15]) && (y_core[15] != ea[15]);
    end else if (op_sub) begin
      y_core = subres[15:0];
      c_core = ~subres[16];
      v_core = (ea[15] != eb[15]) && (y_core[15] != ea[15]);
    end else if (op_and)
      y_core = ea & eb;
    else if (op_or)
      y_core = ea | eb;
    else if (op_xor)
      y_core = ea ^ eb;
    else if (op_shl)
      y_core = shlres;
    else if (op_shr)
      y_core = shrres;
    else if (op_pass_b)
      y_core = eb;
  end

  assign y = cmp_mode ? 16'h0000 : y_core;
  assign z = flag_en & ~(|y_core);
  assign n = flag_en & y_core[15];
  assign c = flag_en & c_core;
  assign v = flag_en & v_core;
endmodule

// ---------------------------------------------------------------------------
// reg16: one 16-bit register cell with write enable.
// ---------------------------------------------------------------------------
module reg16(
  input clk,
  input we,
  input [15:0] d,
  output [15:0] q
);
  reg [15:0] r;
  always @(posedge clk)
    if (we)
      r <= d;
  assign q = r;
endmodule

// ---------------------------------------------------------------------------
// regfile_struct: structural 8 x 16 register file (two read ports).
// ---------------------------------------------------------------------------
module regfile_struct(
  input clk,
  input we,
  input [2:0] waddr,
  input [15:0] wdata,
  input [2:0] raddr_a,
  input [2:0] raddr_b,
  output reg [15:0] rdata_a,
  output reg [15:0] rdata_b
);
  wire [7:0] wsel;
  assign wsel[0] = we & (waddr == 3'd0);
  assign wsel[1] = we & (waddr == 3'd1);
  assign wsel[2] = we & (waddr == 3'd2);
  assign wsel[3] = we & (waddr == 3'd3);
  assign wsel[4] = we & (waddr == 3'd4);
  assign wsel[5] = we & (waddr == 3'd5);
  assign wsel[6] = we & (waddr == 3'd6);
  assign wsel[7] = we & (waddr == 3'd7);

  wire [15:0] q0;
  wire [15:0] q1;
  wire [15:0] q2;
  wire [15:0] q3;
  wire [15:0] q4;
  wire [15:0] q5;
  wire [15:0] q6;
  wire [15:0] q7;

  reg16 u_r0(.clk(clk), .we(wsel[0]), .d(wdata), .q(q0));
  reg16 u_r1(.clk(clk), .we(wsel[1]), .d(wdata), .q(q1));
  reg16 u_r2(.clk(clk), .we(wsel[2]), .d(wdata), .q(q2));
  reg16 u_r3(.clk(clk), .we(wsel[3]), .d(wdata), .q(q3));
  reg16 u_r4(.clk(clk), .we(wsel[4]), .d(wdata), .q(q4));
  reg16 u_r5(.clk(clk), .we(wsel[5]), .d(wdata), .q(q5));
  reg16 u_r6(.clk(clk), .we(wsel[6]), .d(wdata), .q(q6));
  reg16 u_r7(.clk(clk), .we(wsel[7]), .d(wdata), .q(q7));

  always @(*)
    case (raddr_a)
      3'd0: rdata_a = q0;
      3'd1: rdata_a = q1;
      3'd2: rdata_a = q2;
      3'd3: rdata_a = q3;
      3'd4: rdata_a = q4;
      3'd5: rdata_a = q5;
      3'd6: rdata_a = q6;
      default: rdata_a = q7;
    endcase

  always @(*)
    case (raddr_b)
      3'd0: rdata_b = q0;
      3'd1: rdata_b = q1;
      3'd2: rdata_b = q2;
      3'd3: rdata_b = q3;
      3'd4: rdata_b = q4;
      3'd5: rdata_b = q5;
      3'd6: rdata_b = q6;
      default: rdata_b = q7;
    endcase
endmodule

// ---------------------------------------------------------------------------
// regbank: write-port arbitration around the register file.
// ---------------------------------------------------------------------------
module regbank(
  input clk,
  input rst,
  input wb_we,
  input [2:0] wb_idx,
  input [15:0] wb_alu_data,
  input [15:0] wb_mem_data,
  input wb_from_mem,
  input [2:0] raddr_a,
  input [2:0] raddr_b,
  input [7:0] prof_cfg,
  input prof_en,
  output [15:0] rdata_a,
  output [15:0] rdata_b,
  output par_err,
  output [15:0] mon_signature,
  output [15:0] mon_count,
  output mon_ovf
);
  wire [15:0] wdata;
  assign wdata = wb_from_mem ? wb_mem_data : wb_alu_data;

  regfile_struct u_rf(
    .clk(clk),
    .we(wb_we),
    .waddr(wb_idx),
    .wdata(wdata),
    .raddr_a(raddr_a),
    .raddr_b(raddr_b),
    .rdata_a(rdata_a),
    .rdata_b(rdata_b)
  );

  // Read-port parity monitor (debug visibility only).
  assign par_err = (^rdata_a) ^ (^rdata_b);

  rf_monitor u_mon(
    .clk(clk),
    .rst(rst),
    .rdata_a(rdata_a),
    .rdata_b(rdata_b),
    .prof_cfg(prof_cfg),
    .prof_en(prof_en),
    .signature(mon_signature),
    .prof_count(mon_count),
    .prof_ovf(mon_ovf)
  );
endmodule

// ---------------------------------------------------------------------------
// forward: writeback-to-execute forwarding unit.
// ---------------------------------------------------------------------------
module forward(
  input [2:0] ra,
  input [2:0] rb,
  input [2:0] wb_idx,
  input wb_we,
  input wb_valid,
  output fwd_a,
  output fwd_b
);
  wire hit_a;
  wire hit_b;
  assign hit_a = ra == wb_idx;
  assign hit_b = rb == wb_idx;
  assign fwd_a = wb_we & wb_valid & hit_a;
  assign fwd_b = wb_we & wb_valid & hit_b;
endmodule

// ---------------------------------------------------------------------------
// exc: exception unit (undefined instruction, SWI, IRQ) with mode/EPC state.
// ---------------------------------------------------------------------------
module exc(
  input clk,
  input rst,
  input undef,
  input swi,
  input irq,
  input rfe,
  input [7:0] pc,
  output exc_taken,
  output [7:0] exc_vector,
  output [7:0] epc_out,
  output mode_out,
  output [7:0] exc_count
);
  reg mode;
  reg irq_pend;
  reg [7:0] epc;
  reg [7:0] count;

  assign exc_taken = undef | swi | (irq_pend & ~mode);
  assign exc_vector = undef ? 8'h04 : (swi ? 8'h08 : 8'h0c);
  assign epc_out = epc;
  assign mode_out = mode;
  assign exc_count = count;

  always @(posedge clk)
    if (rst) begin
      mode <= 1'b0;
      irq_pend <= 1'b0;
      epc <= 8'h00;
      count <= 8'h00;
    end else begin
      irq_pend <= irq & ~mode;
      if (exc_taken) begin
        mode <= 1'b1;
        epc <= pc;
        count <= count + 8'h01;
      end else if (rfe)
        mode <= 1'b0;
    end
endmodule

// ---------------------------------------------------------------------------
// decode: instruction decoder.  The 13-bit ALU control vector is a hard-coded
// table keyed by the 4-bit opcode — ten of the thirteen ALU control inputs
// can only ever take the constant patterns below (the paper's Section 4.2
// testability bottleneck).
// ---------------------------------------------------------------------------
module decode(
  input [15:0] inst,
  input flag_z,
  output [3:0] opcode,
  output [2:0] rd,
  output [2:0] ra,
  output [2:0] rb,
  output [7:0] imm8,
  output [5:0] imm6,
  output reg [12:0] alu_ctrl,
  output reg wb_en,
  output reg wb_from_mem,
  output reg mem_re,
  output reg mem_we,
  output reg use_imm8,
  output reg use_imm6,
  output reg is_branch,
  output reg is_swi,
  output reg is_rfe,
  output reg is_undef,
  output branch_taken,
  output reg [2:0] dbg_class
);
  assign opcode = inst[15:12];
  assign rd = inst[11:9];
  assign ra = inst[8:6];
  assign rb = inst[5:3];
  assign imm8 = inst[7:0];
  assign imm6 = inst[5:0];
  assign branch_taken = is_branch & flag_z;

  // alu_ctrl bits: {cmp_mode, flag_en, cin, inv_b, inv_a, op_pass_b,
  //                 op_shr, op_shl, op_xor, op_or, op_and, op_sub, op_add}
  always @(*) begin
    alu_ctrl = 13'b0000000000000;
    wb_en = 1'b0;
    wb_from_mem = 1'b0;
    mem_re = 1'b0;
    mem_we = 1'b0;
    use_imm8 = 1'b0;
    use_imm6 = 1'b0;
    is_branch = 1'b0;
    is_swi = 1'b0;
    is_rfe = 1'b0;
    is_undef = 1'b0;
    case (opcode)
      4'h0: begin alu_ctrl = 13'b0100000000001; wb_en = 1'b1; end // ADD
      4'h1: begin alu_ctrl = 13'b0100000000010; wb_en = 1'b1; end // SUB
      4'h2: begin alu_ctrl = 13'b0000000000100; wb_en = 1'b1; end // AND
      4'h3: begin alu_ctrl = 13'b0000000001000; wb_en = 1'b1; end // OR
      4'h4: begin alu_ctrl = 13'b0000000010000; wb_en = 1'b1; end // XOR
      4'h5: begin alu_ctrl = 13'b0000000100000; wb_en = 1'b1; end // SHL
      4'h6: begin alu_ctrl = 13'b0000001000000; wb_en = 1'b1; end // SHR
      4'h7: begin // MOVI rd, imm8
        alu_ctrl = 13'b0000010000000;
        wb_en = 1'b1;
        use_imm8 = 1'b1;
      end
      4'h8: begin // LD rd, [ra + imm6]
        alu_ctrl = 13'b0000000000001;
        wb_en = 1'b1;
        wb_from_mem = 1'b1;
        mem_re = 1'b1;
        use_imm6 = 1'b1;
      end
      4'h9: begin // ST rb, [ra + imm6]
        alu_ctrl = 13'b0000000000001;
        mem_we = 1'b1;
        use_imm6 = 1'b1;
      end
      4'ha: is_branch = 1'b1;                                     // BEQ imm8
      4'hb: alu_ctrl = 13'b1100000000010;                         // CMP
      4'hc: is_swi = 1'b1;                                        // SWI
      4'hd: is_rfe = 1'b1;                                        // RFE
      default: is_undef = 1'b1;                                   // E/F
    endcase
  end

  // Instruction-class debug bus (trace visibility only).
  always @(*)
    casez (opcode)
      4'b00??: dbg_class = 3'd0;  // arithmetic / logic
      4'b010?: dbg_class = 3'd1;  // shifts
      4'b0110: dbg_class = 3'd1;
      4'b0111: dbg_class = 3'd2;  // immediate move
      4'b100?: dbg_class = 3'd3;  // memory
      4'b101?: dbg_class = 3'd4;  // branch / compare
      default: dbg_class = 3'd5;  // system
    endcase
endmodule

// ---------------------------------------------------------------------------
// datapath: program counter, pipeline registers, flags and operand muxing.
// ---------------------------------------------------------------------------
module datapath(
  input clk,
  input rst,
  input [15:0] mem_rdata,
  input [2:0] rd,
  input [2:0] ra,
  input [2:0] rb,
  input [7:0] imm8,
  input [5:0] imm6,
  input [12:0] alu_ctrl,
  input wb_en_d,
  input wb_from_mem_d,
  input use_imm8,
  input use_imm6,
  input branch_taken,
  input exc_taken,
  input [7:0] exc_vector,
  input [7:0] epc,
  input is_rfe,
  input stall,
  input [15:0] wp_lo,
  input [15:0] wp_hi,
  input [7:0] ext_event,
  input [2:0] ev_sel,
  input ev_en,
  input [7:0] prof_cfg,
  input prof_en,
  output [7:0] pc_out,
  output flag_z_out,
  output [15:0] mem_addr,
  output [15:0] mem_wdata,
  output [15:0] alu_result,
  output rf_par_err,
  output wp_match,
  output [15:0] trace_status,
  output [23:0] timestamp,
  output [15:0] mon_signature,
  output [15:0] mon_count,
  output mon_ovf
);
  reg [7:0] pc;
  reg [3:0] flags; // {v, c, n, z}

  // Writeback pipeline stage registers.
  reg wb_we;
  reg wb_from_mem;
  reg [2:0] wb_idx;
  reg [15:0] wb_alu_data;
  reg [15:0] wb_mem_data;

  wire [15:0] rf_a;
  wire [15:0] rf_b;
  wire fwd_a_sel;
  wire fwd_b_sel;

  regbank u_rb(
    .clk(clk),
    .rst(rst),
    .wb_we(wb_we),
    .wb_idx(wb_idx),
    .wb_alu_data(wb_alu_data),
    .wb_mem_data(wb_mem_data),
    .wb_from_mem(wb_from_mem),
    .raddr_a(ra),
    .raddr_b(rb),
    .rdata_a(rf_a),
    .rdata_b(rf_b),
    .par_err(rf_par_err),
    .prof_cfg(prof_cfg),
    .prof_en(prof_en),
    .mon_signature(mon_signature),
    .mon_count(mon_count),
    .mon_ovf(mon_ovf)
  );

  trace_unit u_trace(
    .clk(clk),
    .rst(rst),
    .value(alu_y),
    .wp_lo(wp_lo),
    .wp_hi(wp_hi),
    .ext_event(ext_event),
    .ev_sel(ev_sel),
    .ev_en(ev_en),
    .wp_match(wp_match),
    .trace_status(trace_status),
    .timestamp(timestamp)
  );

  forward u_fwd(
    .ra(ra),
    .rb(rb),
    .wb_idx(wb_idx),
    .wb_we(wb_we),
    .wb_valid(1'b1),
    .fwd_a(fwd_a_sel),
    .fwd_b(fwd_b_sel)
  );

  wire [15:0] wb_value;
  assign wb_value = wb_from_mem ? wb_mem_data : wb_alu_data;

  wire [15:0] op_a;
  assign op_a = fwd_a_sel ? wb_value : rf_a;

  wire [15:0] rb_fwd;
  assign rb_fwd = fwd_b_sel ? wb_value : rf_b;

  wire [15:0] op_b;
  assign op_b = use_imm8 ? {8'h00, imm8}
              : (use_imm6 ? {10'b0000000000, imm6} : rb_fwd);

  wire [15:0] alu_y;
  wire alu_z;
  wire alu_n;
  wire alu_c;
  wire alu_v;

  arm_alu u_alu(
    .a(op_a),
    .b(op_b),
    .op_add(alu_ctrl[0]),
    .op_sub(alu_ctrl[1]),
    .op_and(alu_ctrl[2]),
    .op_or(alu_ctrl[3]),
    .op_xor(alu_ctrl[4]),
    .op_shl(alu_ctrl[5]),
    .op_shr(alu_ctrl[6]),
    .op_pass_b(alu_ctrl[7]),
    .inv_a(alu_ctrl[8]),
    .inv_b(alu_ctrl[9]),
    .cin(alu_ctrl[10]),
    .flag_en(alu_ctrl[11]),
    .cmp_mode(alu_ctrl[12]),
    .y(alu_y),
    .z(alu_z),
    .n(alu_n),
    .c(alu_c),
    .v(alu_v)
  );

  assign alu_result = alu_y;
  assign mem_addr = alu_y;
  assign mem_wdata = rb_fwd;
  assign pc_out = pc;
  assign flag_z_out = flags[0];

  always @(posedge clk)
    if (rst) begin
      pc <= 8'h00;
      flags <= 4'b0000;
      wb_we <= 1'b0;
      wb_from_mem <= 1'b0;
      wb_idx <= 3'd0;
      wb_alu_data <= 16'h0000;
      wb_mem_data <= 16'h0000;
    end else begin
      if (exc_taken)
        pc <= exc_vector;
      else if (is_rfe)
        pc <= epc;
      else if (branch_taken)
        pc <= imm8;
      else if (!stall)
        pc <= pc + 8'h01;

      if (alu_ctrl[11])
        flags <= {alu_v, alu_c, alu_n, alu_z};

      wb_we <= wb_en_d;
      wb_from_mem <= wb_from_mem_d;
      wb_idx <= rd;
      wb_alu_data <= alu_y;
      wb_mem_data <= mem_rdata;
    end
endmodule

// ---------------------------------------------------------------------------
// core: decoder + datapath + exception unit.
// ---------------------------------------------------------------------------
module core(
  input clk,
  input rst,
  input [15:0] inst,
  input [15:0] mem_rdata,
  input irq,
  output [7:0] pc,
  output [15:0] mem_addr,
  output [15:0] mem_wdata,
  output mem_we,
  output mem_re,
  output mode,
  output [15:0] alu_result,
  input [15:0] wp_lo,
  input [15:0] wp_hi,
  input [7:0] ext_event,
  input [2:0] ev_sel,
  input ev_en,
  input [7:0] prof_cfg,
  input prof_en,
  output [2:0] dbg_class,
  output [7:0] exc_count,
  output rf_par_err,
  output wp_match,
  output [15:0] trace_status,
  output [23:0] timestamp,
  output [15:0] mon_signature,
  output [15:0] mon_count,
  output mon_ovf
);
  wire [2:0] rd;
  wire [2:0] ra;
  wire [2:0] rb;
  wire [7:0] imm8;
  wire [5:0] imm6;
  wire [12:0] alu_ctrl;
  wire wb_en;
  wire wb_from_mem;
  wire mem_re_w;
  wire mem_we_w;
  wire use_imm8;
  wire use_imm6;
  wire is_swi;
  wire is_rfe;
  wire is_undef;
  wire branch_taken;
  wire flag_z;
  wire exc_taken;
  wire [7:0] exc_vector;
  wire [7:0] epc;

  decode u_dec(
    .inst(inst),
    .flag_z(flag_z),
    .opcode(),
    .rd(rd),
    .ra(ra),
    .rb(rb),
    .imm8(imm8),
    .imm6(imm6),
    .alu_ctrl(alu_ctrl),
    .wb_en(wb_en),
    .wb_from_mem(wb_from_mem),
    .mem_re(mem_re_w),
    .mem_we(mem_we_w),
    .use_imm8(use_imm8),
    .use_imm6(use_imm6),
    .is_branch(),
    .is_swi(is_swi),
    .is_rfe(is_rfe),
    .is_undef(is_undef),
    .branch_taken(branch_taken),
    .dbg_class(dbg_class)
  );

  exc u_exc(
    .clk(clk),
    .rst(rst),
    .undef(is_undef),
    .swi(is_swi),
    .irq(irq),
    .rfe(is_rfe),
    .pc(pc),
    .exc_taken(exc_taken),
    .exc_vector(exc_vector),
    .epc_out(epc),
    .mode_out(mode),
    .exc_count(exc_count)
  );

  datapath u_dp(
    .clk(clk),
    .rst(rst),
    .mem_rdata(mem_rdata),
    .rd(rd),
    .ra(ra),
    .rb(rb),
    .imm8(imm8),
    .imm6(imm6),
    .alu_ctrl(alu_ctrl),
    .wb_en_d(wb_en),
    .wb_from_mem_d(wb_from_mem),
    .use_imm8(use_imm8),
    .use_imm6(use_imm6),
    .branch_taken(branch_taken),
    .exc_taken(exc_taken),
    .exc_vector(exc_vector),
    .epc(epc),
    .is_rfe(is_rfe),
    .stall(1'b0),
    .pc_out(pc),
    .flag_z_out(flag_z),
    .mem_addr(mem_addr),
    .mem_wdata(mem_wdata),
    .alu_result(alu_result),
    .rf_par_err(rf_par_err),
    .wp_lo(wp_lo),
    .wp_hi(wp_hi),
    .ext_event(ext_event),
    .ev_sel(ev_sel),
    .ev_en(ev_en),
    .prof_cfg(prof_cfg),
    .prof_en(prof_en),
    .wp_match(wp_match),
    .trace_status(trace_status),
    .timestamp(timestamp),
    .mon_signature(mon_signature),
    .mon_count(mon_count),
    .mon_ovf(mon_ovf)
  );

  assign mem_we = mem_we_w;
  assign mem_re = mem_re_w;
endmodule


// ---------------------------------------------------------------------------
// trace_unit: watchpoint comparator (thin) plus an event-counting trace
// engine on dedicated pins (fat).  Only the watchpoint slice is functionally
// visible to the ALU; hierarchical extraction prunes the rest.
// ---------------------------------------------------------------------------
module trace_unit(
  input clk,
  input rst,
  input [15:0] value,
  input [15:0] wp_lo,
  input [15:0] wp_hi,
  input [7:0] ext_event,
  input [2:0] ev_sel,
  input ev_en,
  output wp_match,
  output [15:0] trace_status,
  output [23:0] timestamp
);
  // Thin slice: range watchpoint on the observed value.
  wire ge_lo;
  wire le_hi;
  assign ge_lo = ~(value < wp_lo);
  assign le_hi = ~(wp_hi < value);
  assign wp_match = ge_lo & le_hi;

  // Fat remainder: event filter, four counters and a timestamp generator,
  // all driven from dedicated pins.
  reg [23:0] ts;
  reg [15:0] cnt0;
  reg [15:0] cnt1;
  reg [15:0] cnt2;
  reg [15:0] cnt3;
  wire ev_bit;
  wire [7:0] masked;
  assign masked = ext_event & {8{ev_en}};
  assign ev_bit = masked[ev_sel];

  always @(posedge clk)
    if (rst) begin
      ts <= 24'd0;
      cnt0 <= 16'd0;
      cnt1 <= 16'd0;
      cnt2 <= 16'd0;
      cnt3 <= 16'd0;
    end else begin
      ts <= ts + 24'd1;
      if (ev_bit & ~ev_sel[1])
        cnt0 <= cnt0 + 16'd1;
      if (ev_bit & ev_sel[0])
        cnt1 <= cnt1 + 16'd1;
      if ((&masked[3:0]) | ev_bit)
        cnt2 <= cnt2 + 16'd1;
      if (^masked)
        cnt3 <= cnt3 + 16'd1;
    end

  assign trace_status = cnt0 ^ cnt1 ^ (cnt2 & cnt3);
  assign timestamp = ts;
endmodule

// ---------------------------------------------------------------------------
// rf_monitor: read-port signature compactor (thin) plus a programmable
// access profiler on dedicated pins (fat), sitting next to the register
// file inside the regbank.
// ---------------------------------------------------------------------------
module rf_monitor(
  input clk,
  input rst,
  input [15:0] rdata_a,
  input [15:0] rdata_b,
  input [7:0] prof_cfg,
  input prof_en,
  output [15:0] signature,
  output [15:0] prof_count,
  output prof_ovf
);
  // Thin slice: MISR-style signature over the read ports.
  reg [15:0] sig;
  wire [15:0] sig_next;
  assign sig_next = {sig[14:0], sig[15] ^ sig[12] ^ sig[3]}
                    ^ rdata_a ^ {rdata_b[7:0], rdata_b[15:8]};
  always @(posedge clk)
    if (rst)
      sig <= 16'hace1;
    else
      sig <= sig_next;
  assign signature = sig;

  // Fat remainder: windowed profiler with prescaler and overflow flag,
  // entirely on dedicated configuration pins.
  reg [15:0] window;
  reg [15:0] hits;
  reg [7:0] div;
  reg ovf;
  always @(posedge clk)
    if (rst) begin
      window <= 16'd0;
      hits <= 16'd0;
      div <= 8'd0;
      ovf <= 1'b0;
    end else if (prof_en) begin
      if (div == prof_cfg) begin
        div <= 8'd0;
        window <= window + 16'd1;
        if (window[3:0] == {prof_cfg[3:2], prof_cfg[1:0]})
          hits <= hits + 16'd1;
        if (&hits)
          ovf <= 1'b1;
      end else
        div <= div + 8'd1;
    end
  assign prof_count = hits;
  assign prof_ovf = ovf;
endmodule

// ---------------------------------------------------------------------------
// mac32: multiply-accumulate coprocessor on dedicated pins.
// ---------------------------------------------------------------------------
module mac32(
  input clk,
  input rst,
  input [31:0] cp_a,
  input [31:0] cp_b,
  input [1:0] cp_op,
  input cp_en,
  output [31:0] cp_result,
  output cp_ovf,
  output cp_zero
);
  reg [31:0] acc;
  wire [31:0] prod;
  assign prod = cp_a * cp_b;

  wire [32:0] sum;
  assign sum = {1'b0, acc} + {1'b0, prod};

  always @(posedge clk)
    if (rst)
      acc <= 32'h00000000;
    else if (cp_en)
      case (cp_op)
        2'd1: acc <= prod;
        2'd2: acc <= sum[31:0];
        2'd3: acc <= 32'h00000000;
        default: acc <= acc;
      endcase

  assign cp_result = acc;
  assign cp_ovf = sum[32];
  assign cp_zero = ~(|acc);
endmodule

// ---------------------------------------------------------------------------
// uart: 8N1 transmitter and receiver on dedicated pins.
// ---------------------------------------------------------------------------
module uart(
  input clk,
  input rst,
  input [7:0] baud_div,
  input rx,
  input [7:0] tx_data,
  input tx_start,
  output tx,
  output tx_busy,
  output [7:0] rx_data,
  output rx_valid
);
  // Transmitter: 10-bit frame shifted out at the programmed rate.
  reg [9:0] tx_shift;
  reg [3:0] tx_count;
  reg [7:0] tx_baud;
  always @(posedge clk)
    if (rst) begin
      tx_shift <= 10'b1111111111;
      tx_count <= 4'd0;
      tx_baud <= 8'd0;
    end else if (tx_count == 4'd0) begin
      if (tx_start) begin
        tx_shift <= {1'b1, tx_data, 1'b0};
        tx_count <= 4'd10;
        tx_baud <= baud_div;
      end
    end else if (tx_baud == 8'd0) begin
      tx_shift <= {1'b1, tx_shift[9:1]};
      tx_count <= tx_count - 4'd1;
      tx_baud <= baud_div;
    end else
      tx_baud <= tx_baud - 8'd1;

  assign tx = tx_shift[0];
  assign tx_busy = |tx_count;

  // Receiver: start-bit detect, mid-bit sample, 8 data bits.
  reg [1:0] rx_sync;
  reg [3:0] rx_count;
  reg [7:0] rx_baud;
  reg [7:0] rx_shift;
  reg [7:0] rx_hold;
  reg rx_done;
  always @(posedge clk)
    if (rst) begin
      rx_sync <= 2'b11;
      rx_count <= 4'd0;
      rx_baud <= 8'd0;
      rx_shift <= 8'h00;
      rx_hold <= 8'h00;
      rx_done <= 1'b0;
    end else begin
      rx_sync <= {rx_sync[0], rx};
      rx_done <= 1'b0;
      if (rx_count == 4'd0) begin
        if (!rx_sync[1]) begin
          rx_count <= 4'd9;
          rx_baud <= {1'b0, baud_div[7:1]};
        end
      end else if (rx_baud == 8'd0) begin
        rx_baud <= baud_div;
        rx_count <= rx_count - 4'd1;
        if (rx_count == 4'd1) begin
          rx_hold <= rx_shift;
          rx_done <= 1'b1;
        end else
          rx_shift <= {rx_sync[1], rx_shift[7:1]};
      end else
        rx_baud <= rx_baud - 8'd1;
    end

  assign rx_data = rx_hold;
  assign rx_valid = rx_done;
endmodule

// ---------------------------------------------------------------------------
// crc16: byte-wide CRC-16/CCITT engine on dedicated pins.
// ---------------------------------------------------------------------------
module crc16(
  input clk,
  input rst,
  input [7:0] data_in,
  input data_en,
  input crc_clear,
  output [15:0] crc,
  output crc_ok
);
  reg [15:0] r;
  reg [15:0] nxt;
  reg [7:0] d;
  integer i;

  always @(*) begin
    nxt = r;
    d = data_in;
    for (i = 0; i < 8; i = i + 1) begin
      if (nxt[15] ^ d[7])
        nxt = {nxt[14:0], 1'b0} ^ 16'h1021;
      else
        nxt = {nxt[14:0], 1'b0};
      d = {d[6:0], 1'b0};
    end
  end

  always @(posedge clk)
    if (rst)
      r <= 16'hffff;
    else if (crc_clear)
      r <= 16'hffff;
    else if (data_en)
      r <= nxt;

  assign crc = r;
  assign crc_ok = r == 16'h0000;
endmodule

// ---------------------------------------------------------------------------
// timer: prescaled 16-bit timer raising IRQs into the core.
// ---------------------------------------------------------------------------
module timer(
  input clk,
  input rst,
  input [7:0] prescale,
  input [15:0] compare,
  input enable,
  input clear,
  output irq,
  output [15:0] count_out
);
  reg [7:0] pre;
  reg [15:0] count;
  reg hit;

  always @(posedge clk)
    if (rst) begin
      pre <= 8'd0;
      count <= 16'd0;
      hit <= 1'b0;
    end else if (clear) begin
      pre <= 8'd0;
      count <= 16'd0;
      hit <= 1'b0;
    end else if (enable) begin
      if (pre == prescale) begin
        pre <= 8'd0;
        count <= count + 16'd1;
        hit <= (count + 16'd1) == compare;
      end else begin
        pre <= pre + 8'd1;
        hit <= 1'b0;
      end
    end else
      hit <= 1'b0;

  assign irq = hit;
  assign count_out = count;
endmodule

// ---------------------------------------------------------------------------
// dma_gen: descriptor-driven address generator on dedicated pins.
// ---------------------------------------------------------------------------
module dma_gen(
  input clk,
  input rst,
  input [15:0] base,
  input [7:0] len,
  input [1:0] stride,
  input start,
  output [15:0] addr,
  output active,
  output done
);
  reg [15:0] cur;
  reg [7:0] remaining;
  reg running;
  reg finished;

  wire [15:0] step;
  assign step = stride == 2'd0 ? 16'd1
              : (stride == 2'd1 ? 16'd2
              : (stride == 2'd2 ? 16'd4 : 16'd8));

  always @(posedge clk)
    if (rst) begin
      cur <= 16'd0;
      remaining <= 8'd0;
      running <= 1'b0;
      finished <= 1'b0;
    end else if (!running) begin
      finished <= 1'b0;
      if (start) begin
        cur <= base;
        remaining <= len;
        running <= 1'b1;
      end
    end else if (remaining == 8'd0) begin
      running <= 1'b0;
      finished <= 1'b1;
    end else begin
      cur <= cur + step;
      remaining <= remaining - 8'd1;
    end

  assign addr = cur;
  assign active = running;
  assign done = finished;
endmodule


// ---------------------------------------------------------------------------
// pwm: eight-channel pulse-width modulator on dedicated pins.
// ---------------------------------------------------------------------------
module pwm(
  input clk,
  input rst,
  input [7:0] duty0,
  input [7:0] duty1,
  input [7:0] duty2,
  input [7:0] duty3,
  input pwm_en,
  output [3:0] pwm_out,
  output [7:0] phase
);
  reg [7:0] counter;
  always @(posedge clk)
    if (rst)
      counter <= 8'd0;
    else if (pwm_en)
      counter <= counter + 8'd1;

  assign pwm_out[0] = pwm_en & (counter < duty0);
  assign pwm_out[1] = pwm_en & (counter < duty1);
  assign pwm_out[2] = pwm_en & (counter < duty2);
  assign pwm_out[3] = pwm_en & (counter < duty3);
  assign phase = counter;
endmodule

// ---------------------------------------------------------------------------
// gpio: input synchroniser with edge detection and output latch.
// ---------------------------------------------------------------------------
module gpio(
  input clk,
  input rst,
  input [7:0] gpio_in,
  input [7:0] gpio_set,
  input [7:0] gpio_clr,
  output [7:0] gpio_out,
  output [7:0] rise_seen,
  output [7:0] fall_seen
);
  reg [7:0] sync0;
  reg [7:0] sync1;
  reg [7:0] rise;
  reg [7:0] fall;
  reg [7:0] out;

  always @(posedge clk)
    if (rst) begin
      sync0 <= 8'h00;
      sync1 <= 8'h00;
      rise <= 8'h00;
      fall <= 8'h00;
      out <= 8'h00;
    end else begin
      sync0 <= gpio_in;
      sync1 <= sync0;
      rise <= rise | (sync0 & ~sync1);
      fall <= fall | (~sync0 & sync1);
      out <= (out | gpio_set) & ~gpio_clr;
    end

  assign gpio_out = out;
  assign rise_seen = rise;
  assign fall_seen = fall;
endmodule

// ---------------------------------------------------------------------------
// arm: top level — core, peripherals, bus glue and an IRQ synchroniser.
// ---------------------------------------------------------------------------
module arm(
  input clk,
  input rst,
  input [15:0] inst,
  input [15:0] mem_rdata,
  input irq_pin,
  input [31:0] cp_a,
  input [31:0] cp_b,
  input [1:0] cp_op,
  input cp_en,
  input [7:0] baud_div,
  input uart_rx,
  input [7:0] uart_tx_data,
  input uart_tx_start,
  input [7:0] crc_data,
  input crc_en,
  input crc_clear,
  input [7:0] tmr_prescale,
  input [15:0] tmr_compare,
  input tmr_enable,
  input tmr_clear,
  input [15:0] dma_base,
  input [7:0] dma_len,
  input [1:0] dma_stride,
  input dma_start,
  input [7:0] duty0,
  input [7:0] duty1,
  input [7:0] duty2,
  input [7:0] duty3,
  input pwm_en,
  input [7:0] gpio_in,
  input [7:0] gpio_set,
  input [7:0] gpio_clr,
  input [15:0] wp_lo,
  input [15:0] wp_hi,
  input [7:0] ext_event,
  input [2:0] ev_sel,
  input ev_en,
  input [7:0] prof_cfg,
  input prof_en,
  output [7:0] inst_addr,
  output [15:0] mem_addr,
  output [15:0] mem_wdata,
  output mem_we,
  output mem_re,
  output supervisor,
  output [15:0] result_bus,
  output [2:0] dbg_class,
  output [7:0] exc_count,
  output rf_par_err,
  output [31:0] cp_result,
  output cp_ovf,
  output cp_zero,
  output uart_tx,
  output uart_tx_busy,
  output [7:0] uart_rx_data,
  output uart_rx_valid,
  output [15:0] crc_value,
  output crc_ok,
  output [15:0] tmr_count,
  output [15:0] dma_addr,
  output dma_active,
  output dma_done,
  output [3:0] pwm_out,
  output [7:0] pwm_phase,
  output [7:0] gpio_out,
  output [7:0] gpio_rise,
  output [7:0] gpio_fall,
  output wp_match,
  output [15:0] trace_status,
  output [23:0] timestamp,
  output [15:0] mon_signature,
  output [15:0] mon_count,
  output mon_ovf
);
  reg irq_sync;
  reg irq_meta;
  wire tmr_irq;
  always @(posedge clk)
    if (rst) begin
      irq_meta <= 1'b0;
      irq_sync <= 1'b0;
    end else begin
      irq_meta <= irq_pin;
      irq_sync <= irq_meta;
    end

  wire core_irq;
  assign core_irq = irq_sync | tmr_irq;

  wire [7:0] pc;
  wire mode;
  wire [15:0] alu_result;

  core u_core(
    .clk(clk),
    .rst(rst),
    .inst(inst),
    .mem_rdata(mem_rdata),
    .irq(core_irq),
    .pc(pc),
    .mem_addr(mem_addr),
    .mem_wdata(mem_wdata),
    .mem_we(mem_we),
    .mem_re(mem_re),
    .mode(mode),
    .alu_result(alu_result),
    .dbg_class(dbg_class),
    .exc_count(exc_count),
    .rf_par_err(rf_par_err),
    .wp_lo(wp_lo),
    .wp_hi(wp_hi),
    .ext_event(ext_event),
    .ev_sel(ev_sel),
    .ev_en(ev_en),
    .prof_cfg(prof_cfg),
    .prof_en(prof_en),
    .wp_match(wp_match),
    .trace_status(trace_status),
    .timestamp(timestamp),
    .mon_signature(mon_signature),
    .mon_count(mon_count),
    .mon_ovf(mon_ovf)
  );

  mac32 u_mac(
    .clk(clk),
    .rst(rst),
    .cp_a(cp_a),
    .cp_b(cp_b),
    .cp_op(cp_op),
    .cp_en(cp_en),
    .cp_result(cp_result),
    .cp_ovf(cp_ovf),
    .cp_zero(cp_zero)
  );

  uart u_uart(
    .clk(clk),
    .rst(rst),
    .baud_div(baud_div),
    .rx(uart_rx),
    .tx_data(uart_tx_data),
    .tx_start(uart_tx_start),
    .tx(uart_tx),
    .tx_busy(uart_tx_busy),
    .rx_data(uart_rx_data),
    .rx_valid(uart_rx_valid)
  );

  crc16 u_crc(
    .clk(clk),
    .rst(rst),
    .data_in(crc_data),
    .data_en(crc_en),
    .crc_clear(crc_clear),
    .crc(crc_value),
    .crc_ok(crc_ok)
  );

  timer u_tmr(
    .clk(clk),
    .rst(rst),
    .prescale(tmr_prescale),
    .compare(tmr_compare),
    .enable(tmr_enable),
    .clear(tmr_clear),
    .irq(tmr_irq),
    .count_out(tmr_count)
  );

  dma_gen u_dma(
    .clk(clk),
    .rst(rst),
    .base(dma_base),
    .len(dma_len),
    .stride(dma_stride),
    .start(dma_start),
    .addr(dma_addr),
    .active(dma_active),
    .done(dma_done)
  );

  pwm u_pwm(
    .clk(clk),
    .rst(rst),
    .duty0(duty0),
    .duty1(duty1),
    .duty2(duty2),
    .duty3(duty3),
    .pwm_en(pwm_en),
    .pwm_out(pwm_out),
    .phase(pwm_phase)
  );

  gpio u_gpio(
    .clk(clk),
    .rst(rst),
    .gpio_in(gpio_in),
    .gpio_set(gpio_set),
    .gpio_clr(gpio_clr),
    .gpio_out(gpio_out),
    .rise_seen(gpio_rise),
    .fall_seen(gpio_fall)
  );

  assign inst_addr = pc;
  assign supervisor = mode;
  assign result_bus = alu_result;
endmodule
"""


def arm2_source() -> str:
    """The Verilog source text of the ARM-2-like benchmark."""
    return _ARM2_VERILOG


def arm2_design() -> Design:
    """Parse the benchmark into a :class:`~repro.hierarchy.Design`."""
    return Design(parse_verilog_cached(_ARM2_VERILOG), top="arm")
