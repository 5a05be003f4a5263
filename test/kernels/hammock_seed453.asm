// Workloads.Generator.kernel ~size:11 ~seed:453 ()
.kernel random-453
bb0:
  setp         %r6, %r5, %r3
  br %r6, bb2, p=0.728399
bb1:
  st.global    %r5, %r1
bb2:
  sin.f32      %r7, %r3
  tex          %r8, %r7
  ld.shared    %r9, %r8
  fma.f32      %r10, %r9, %r3, %r7
  add.s32      %r8, %r3, %r2
  sub.s32      %r11, %r8, %r3
  st.shared    %r8, %r5
  add.s32      %r12, %r0, %r1
  setp         %r13, %r10, %r11
  br %r13, bb4, p=0.797162
bb3:
  add.f32      %r9, %r9, %r3
bb4:
  setp         %r14, %r1, %r11
  br %r14, bb6, p=0.00583378
bb5:
  selp         %r15, %r1, %r12, %r10
  mul.f32      %r16, %r0, %r0
  sub.s32      %r17, %r11, %r16
bb6:
  mov          %r18
bb7:
  ld.global    %r19, %r1
  st.shared    %r0, %r5
  selp         %r20, %r8, %r19, %r9
  mul.f32      %r21, %r0, %r2
  ld.global.wide64 %r22, %r9
  sin.f32      %r23, %r12
  mov          %r24
bb8:
  fma.f32      %r25, %r7, %r9, %r1
  add.s32      %r20, %r11, %r18
  add.s32      %r26, %r11, %r12
  add.s32      %r24, %r24, %r24
  setp         %r27, %r24
  br %r27, bb8, loop=3
bb9:
  add.s32      %r18, %r18, %r18
  setp         %r28, %r18
  br %r28, bb7, loop=3
bb10:
  st.global    %r8, %r26
  ld.shared    %r29, %r18
  fma.f32      %r30, %r11, %r12, %r20
  mul.f32      %r31, %r29, %r8
  rcp.f32      %r32, %r19
  st.global    %r1, %r21
  setp         %r33, %r26, %r31
  br %r33, bb12, p=0.468858
bb11:
  st.shared    %r31, %r7
  mul.f32      %r34, %r0, %r1
  mul.f32      %r35, %r12, %r23
bb12:
  mov          %r36
bb13:
  ld.shared    %r37, %r36
  ex2.f32      %r38, %r37
  ex2.f32      %r39, %r3
  mul.f32      %r11, %r32, %r18
  sqrt.f32     %r40, %r18
  add.s32      %r36, %r36, %r36
  setp         %r41, %r36
  br %r41, bb13, loop=2
bb14:
  setp         %r42, %r1, %r23
  br %r42, bb16, p=0.648438
bb15:
  add.s32      %r19, %r23, %r39
  jmp bb17
bb16:
  mul.f32      %r19, %r39, %r23
bb17:
  setp         %r43, %r0, %r19
  br %r43, bb19, p=0.48073
bb18:
  add.s32      %r8, %r26, %r32
  jmp bb20
bb19:
  mul.f32      %r8, %r32, %r26
bb20:
  st.global    %r0, %r8
  ret
