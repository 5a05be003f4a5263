// Workloads.Generator.kernel ~size:16 ~seed:467 ()
.kernel random-467
bb0:
  mov          %r2
bb1:
  fma.f32      %r3, %r0, %r2, %r1
  selp         %r4, %r3, %r1, %r3
  add.s32      %r5, %r1, %r2
  ld.global    %r6, %r2
  mul.f32      %r1, %r6, %r0
  fma.f32      %r7, %r3, %r3, %r1
  add.s32      %r2, %r2, %r2
  setp         %r8, %r2
  br %r8, bb1, loop=4
bb2:
  sub.s32      %r9, %r3, %r4
  mul.f32      %r10, %r5, %r4
  mul.f32      %r1, %r3, %r0
  fma.f32      %r11, %r9, %r0, %r1
  mov          %r12
bb3:
  selp         %r13, %r5, %r7, %r6
  add.s32      %r13, %r10, %r10
  st.global    %r9, %r3
  and.b32      %r14, %r10, %r1
  ld.global    %r15, %r5
  mul.f32      %r15, %r6, %r13
  setp         %r16, %r0, %r5
  br %r16, bb5, p=0.74151
bb4:
  add.f32      %r13, %r4, %r3
  mul.f32      %r17, %r1, %r15
bb5:
  add.s32      %r12, %r12, %r12
  setp         %r18, %r12
  br %r18, bb3, loop=3
bb6:
  mul.f32      %r19, %r5, %r6
  st.shared    %r19, %r1
  sub.f32      %r20, %r7, %r4
  mul.f32      %r10, %r13, %r2
  mov          %r21
bb7:
  ld.global.wide64 %r22, %r10
  st.global    %r0, %r1
  add.s32      %r21, %r21, %r21
  setp         %r23, %r21
  br %r23, bb7, loop=7
bb8:
  add.s32      %r24, %r11, %r21
  and.b32      %r25, %r2, %r0
  ld.global    %r26, %r5
  sub.f32      %r27, %r10, %r9
  ld.shared    %r28, %r15
  mul.f32      %r28, %r12, %r22
  ld.global    %r29, %r15
  mov          %r30
bb9:
  mul.f32      %r22, %r7, %r1
  sub.f32      %r31, %r11, %r22
  add.s32      %r1, %r12, %r3
  st.shared    %r7, %r19
  fma.f32      %r32, %r20, %r12, %r20
  mul.f32      %r33, %r5, %r31
  mov          %r34
bb10:
  fma.f32      %r35, %r1, %r28, %r4
  sin.f32      %r36, %r30
  ld.global    %r37, %r9
  ld.shared    %r38, %r28
  add.s32      %r34, %r34, %r34
  setp         %r39, %r34
  br %r39, bb10, loop=4
bb11:
  add.s32      %r30, %r30, %r30
  setp         %r40, %r30
  br %r40, bb9, loop=3
bb12:
  ld.shared    %r41, %r21
  add.s32      %r42, %r3, %r13
  st.global    %r31, %r31
  st.global    %r5, %r15
  sin.f32      %r43, %r22
  sub.s32      %r44, %r15, %r27
  sub.s32      %r45, %r34, %r3
  selp         %r46, %r12, %r30, %r38
  ld.global.wide64 %r47, %r0
  fma.f32      %r48, %r19, %r4, %r7
  sub.f32      %r49, %r30, %r20
  setp         %r50, %r30, %r26
  br %r50, bb14, p=0.587739
bb13:
  tex          %r51, %r35
  mul.f32      %r44, %r12, %r48
bb14:
  st.global    %r35, %r3
  fma.f32      %r52, %r12, %r45, %r30
  and.b32      %r53, %r41, %r35
  st.global    %r46, %r9
  mov          %r54
bb15:
  ld.global    %r55, %r27
  sub.s32      %r56, %r43, %r46
  sub.f32      %r57, %r12, %r49
  add.s32      %r54, %r54, %r54
  setp         %r58, %r54
  br %r58, bb15, loop=5
bb16:
  mul.f32      %r59, %r1, %r9
  mul.f32      %r60, %r0, %r11
  add.f32      %r5, %r9, %r38
  add.s32      %r61, %r21, %r26
  fma.f32      %r62, %r26, %r47, %r33
  add.s32      %r63, %r11, %r9
  sub.s32      %r64, %r34, %r3
  setp         %r65, %r7, %r22
  br %r65, bb18, p=0.323068
bb17:
  sub.f32      %r66, %r5, %r46
  rcp.f32      %r67, %r32
  add.f32      %r68, %r26, %r41
bb18:
  tex          %r69, %r24
  ex2.f32      %r70, %r33
  sub.s32      %r71, %r12, %r46
  mov          %r72
bb19:
  ld.global    %r73, %r20
  st.shared    %r28, %r59
  add.s32      %r72, %r72, %r72
  setp         %r74, %r72
  br %r74, bb19, loop=5
bb20:
  st.global    %r43, %r34
  ret
