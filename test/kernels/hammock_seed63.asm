// Workloads.Generator.kernel ~size:59 ~seed:63 ()
.kernel random-63
bb0:
  ld.shared    %r3, %r0
  ld.shared    %r4, %r2
  and.b32      %r5, %r1, %r4
  add.f32      %r6, %r3, %r0
  selp         %r7, %r0, %r2, %r6
  setp         %r8, %r0, %r7
  br %r8, bb2, p=0.563398
bb1:
  add.f32      %r4, %r4, %r7
  fma.f32      %r9, %r2, %r3, %r0
bb2:
  setp         %r10, %r6, %r4
  br %r10, bb4, p=0.0893895
bb3:
  add.s32      %r7, %r7, %r1
bb4:
  ld.shared    %r11, %r1
  add.f32      %r12, %r3, %r3
  sub.s32      %r13, %r6, %r7
  st.global    %r7, %r13
  st.shared    %r4, %r12
  sub.s32      %r14, %r12, %r11
  mov          %r15
bb5:
  fma.f32      %r16, %r11, %r13, %r11
  st.global    %r11, %r11
  add.s32      %r15, %r15, %r15
  setp         %r17, %r15
  br %r17, bb5, loop=2
bb6:
  setp         %r18, %r6, %r1
  br %r18, bb8, p=0.510051
bb7:
  add.s32      %r16, %r2, %r7
  jmp bb9
bb8:
  mul.f32      %r16, %r7, %r2
bb9:
  ld.global    %r19, %r14
  add.f32      %r20, %r4, %r13
  st.global    %r13, %r2
  add.f32      %r21, %r0, %r12
  sqrt.f32     %r22, %r13
  tex          %r23, %r4
  mov          %r24
bb10:
  st.global    %r24, %r15
  mul.f32      %r16, %r13, %r1
  sqrt.f32     %r25, %r16
  st.global    %r22, %r0
  mov          %r26
bb11:
  ld.global    %r27, %r15
  fma.f32      %r28, %r14, %r24, %r4
  sqrt.f32     %r29, %r6
  sqrt.f32     %r30, %r13
  add.s32      %r26, %r26, %r26
  setp         %r31, %r26
  br %r31, bb11, loop=7
bb12:
  add.s32      %r24, %r24, %r24
  setp         %r32, %r24
  br %r32, bb10, loop=3
bb13:
  mov          %r33
bb14:
  st.global    %r24, %r20
  sqrt.f32     %r34, %r22
  ld.global    %r35, %r28
  sin.f32      %r36, %r12
  rcp.f32      %r37, %r20
  add.s32      %r38, %r24, %r37
  ld.global.wide64 %r39, %r3
  ld.global    %r40, %r25
  add.s32      %r33, %r33, %r33
  setp         %r41, %r33
  br %r41, bb14, loop=3
bb15:
  ld.global    %r42, %r20
  mul.f32      %r13, %r6, %r1
  mul.f32      %r43, %r11, %r15
  mov          %r44
bb16:
  st.global    %r33, %r12
  st.global    %r13, %r28
  mov          %r45
bb17:
  fma.f32      %r46, %r21, %r27, %r40
  rcp.f32      %r47, %r30
  add.s32      %r45, %r45, %r45
  setp         %r48, %r45
  br %r48, bb17, loop=4
bb18:
  add.s32      %r44, %r44, %r44
  setp         %r49, %r44
  br %r49, bb16, loop=2
bb19:
  mov          %r50
bb20:
  ld.global.wide64 %r51, %r3
  ld.shared    %r52, %r43
  ld.global    %r53, %r19
  st.shared    %r1, %r33
  add.s32      %r50, %r50, %r50
  setp         %r54, %r50
  br %r54, bb20, loop=3
bb21:
  mov          %r55
bb22:
  mul.f32      %r56, %r40, %r29
  add.s32      %r57, %r51, %r33
  add.s32      %r55, %r55, %r55
  setp         %r58, %r55
  br %r58, bb22, loop=4
bb23:
  setp         %r59, %r29, %r40
  br %r59, bb25, p=0.0921759
bb24:
  add.s32      %r56, %r40, %r30
  jmp bb26
bb25:
  mul.f32      %r56, %r30, %r40
bb26:
  setp         %r60, %r51, %r22
  br %r60, bb28, p=0.891194
bb27:
  add.f32      %r61, %r23, %r55
  fma.f32      %r62, %r45, %r12, %r56
  st.global    %r4, %r16
bb28:
  mov          %r63
bb29:
  ld.shared    %r64, %r3
  ex2.f32      %r65, %r19
  add.s32      %r66, %r57, %r53
  add.s32      %r63, %r63, %r63
  setp         %r67, %r63
  br %r67, bb29, loop=5
bb30:
  setp         %r68, %r23, %r11
  br %r68, bb32, p=0.280264
bb31:
  add.s32      %r39, %r53, %r39
  jmp bb33
bb32:
  mul.f32      %r39, %r39, %r53
bb33:
  setp         %r69, %r47, %r40
  br %r69, bb35, p=0.427301
bb34:
  ld.global    %r70, %r53
bb35:
  setp         %r71, %r36, %r44
  br %r71, bb37, p=0.38308
bb36:
  and.b32      %r72, %r13, %r56
bb37:
  ex2.f32      %r73, %r15
  ld.global    %r74, %r52
  ld.shared    %r75, %r20
  selp         %r76, %r2, %r56, %r3
  mul.f32      %r77, %r74, %r33
  add.f32      %r78, %r19, %r30
  ex2.f32      %r79, %r1
  tex          %r80, %r30
  mul.f32      %r81, %r46, %r29
  add.s32      %r23, %r16, %r45
  ld.global    %r82, %r21
  st.global    %r40, %r73
  add.s32      %r83, %r36, %r82
  sub.f32      %r84, %r52, %r14
  ld.shared    %r85, %r16
  setp         %r86, %r24, %r85
  br %r86, bb39, p=0.599124
bb38:
  add.s32      %r3, %r77, %r35
  jmp bb40
bb39:
  mul.f32      %r3, %r35, %r77
bb40:
  mov          %r87
bb41:
  ld.shared    %r88, %r57
  ld.shared    %r89, %r13
  ld.global.wide64 %r90, %r22
  add.s32      %r87, %r87, %r87
  setp         %r91, %r87
  br %r91, bb41, loop=5
bb42:
  mov          %r92
bb43:
  st.global    %r80, %r80
  ld.shared    %r93, %r35
  mul.f32      %r94, %r35, %r45
  tex          %r95, %r92
  mov          %r96
bb44:
  sub.s32      %r97, %r74, %r26
  fma.f32      %r98, %r51, %r12, %r20
  selp         %r99, %r16, %r30, %r2
  add.s32      %r96, %r96, %r96
  setp         %r100, %r96
  br %r100, bb44, loop=7
bb45:
  add.s32      %r92, %r92, %r92
  setp         %r101, %r92
  br %r101, bb43, loop=3
bb46:
  mov          %r102
bb47:
  add.f32      %r103, %r11, %r26
  selp         %r104, %r74, %r84, %r52
  setp         %r105, %r19, %r46
  br %r105, bb49, p=0.00225344
bb48:
  add.s32      %r23, %r83, %r56
  jmp bb50
bb49:
  mul.f32      %r23, %r56, %r83
bb50:
  add.s32      %r102, %r102, %r102
  setp         %r106, %r102
  br %r106, bb47, loop=4
bb51:
  st.global    %r90, %r66
  tex          %r107, %r81
  add.f32      %r102, %r99, %r104
  ex2.f32      %r108, %r46
  ld.global    %r109, %r76
  setp         %r110, %r83, %r3
  br %r110, bb53, p=0.796627
bb52:
  mul.f32      %r2, %r45, %r7
  and.b32      %r111, %r4, %r56
bb53:
  tex          %r112, %r56
  ld.global    %r113, %r3
  add.s32      %r114, %r93, %r96
  add.f32      %r115, %r34, %r89
  selp         %r116, %r23, %r26, %r81
  mov          %r117
bb54:
  tex          %r118, %r23
  sub.f32      %r119, %r22, %r21
  add.s32      %r120, %r113, %r113
  fma.f32      %r121, %r83, %r87, %r6
  mul.f32      %r122, %r24, %r120
  add.s32      %r123, %r66, %r65
  fma.f32      %r124, %r35, %r34, %r107
  ld.global.wide64 %r125, %r124
  add.s32      %r117, %r117, %r117
  setp         %r126, %r117
  br %r126, bb54, loop=7
bb55:
  mov          %r127
bb56:
  ld.global    %r128, %r1
  st.global    %r83, %r6
  ld.global    %r129, %r112
  ld.global    %r130, %r45
  sin.f32      %r131, %r129
  st.shared    %r6, %r127
  add.f32      %r132, %r55, %r109
  selp         %r133, %r55, %r16, %r79
  add.s32      %r134, %r124, %r88
  add.s32      %r127, %r127, %r127
  setp         %r135, %r127
  br %r135, bb56, loop=4
bb57:
  setp         %r136, %r64, %r6
  br %r136, bb59, p=0.174384
bb58:
  tex          %r137, %r79
  add.s32      %r51, %r51, %r24
  fma.f32      %r138, %r44, %r75, %r127
bb59:
  mov          %r139
bb60:
  selp         %r140, %r45, %r90, %r98
  fma.f32      %r141, %r46, %r23, %r29
  add.s32      %r139, %r139, %r139
  setp         %r142, %r139
  br %r142, bb60, loop=6
bb61:
  mov          %r143
bb62:
  st.shared    %r51, %r34
  mul.f32      %r144, %r28, %r89
  rcp.f32      %r145, %r88
  ld.global    %r146, %r88
  fma.f32      %r147, %r102, %r23, %r2
  add.s32      %r143, %r143, %r143
  setp         %r148, %r143
  br %r148, bb62, loop=5
bb63:
  mov          %r149
bb64:
  sub.s32      %r150, %r89, %r22
  add.f32      %r151, %r39, %r15
  fma.f32      %r152, %r143, %r21, %r109
  add.s32      %r149, %r149, %r149
  setp         %r153, %r149
  br %r153, bb64, loop=3
bb65:
  setp         %r154, %r14, %r65
  br %r154, bb67, p=0.62066
bb66:
  add.s32      %r35, %r79, %r119
  jmp bb68
bb67:
  mul.f32      %r35, %r119, %r79
bb68:
  sub.s32      %r155, %r94, %r3
  sub.s32      %r156, %r74, %r65
  add.s32      %r157, %r79, %r21
  ld.global    %r158, %r7
  mul.f32      %r159, %r20, %r46
  tex          %r160, %r25
  st.global    %r46, %r37
  setp         %r161, %r39, %r144
  br %r161, bb70, p=0.877949
bb69:
  sin.f32      %r162, %r124
  and.b32      %r163, %r65, %r127
  ld.global    %r164, %r83
bb70:
  sub.f32      %r165, %r51, %r134
  fma.f32      %r166, %r23, %r38, %r74
  sub.f32      %r167, %r22, %r146
  rcp.f32      %r168, %r36
  ex2.f32      %r169, %r45
  ld.global    %r170, %r57
  st.global    %r76, %r84
  sub.s32      %r171, %r129, %r92
  sub.s32      %r172, %r116, %r140
  fma.f32      %r173, %r157, %r37, %r56
  ld.global    %r174, %r42
  rcp.f32      %r175, %r121
  setp         %r176, %r141, %r157
  br %r176, bb72, p=0.788504
bb71:
  mul.f32      %r177, %r50, %r134
  ld.global    %r178, %r149
  mul.f32      %r179, %r64, %r108
bb72:
  setp         %r180, %r20, %r89
  br %r180, bb74, p=0.507353
bb73:
  mul.f32      %r181, %r50, %r53
  ld.global    %r182, %r6
  fma.f32      %r183, %r132, %r173, %r120
bb74:
  setp         %r184, %r82, %r12
  br %r184, bb76, p=0.753141
bb75:
  add.f32      %r185, %r170, %r165
  add.f32      %r186, %r39, %r65
  st.global    %r56, %r73
bb76:
  setp         %r187, %r165, %r39
  br %r187, bb78, p=0.0776436
bb77:
  add.s32      %r98, %r97, %r89
  jmp bb79
bb78:
  mul.f32      %r98, %r89, %r97
bb79:
  setp         %r188, %r141, %r3
  br %r188, bb81, p=0.78261
bb80:
  rcp.f32      %r189, %r75
  ex2.f32      %r190, %r117
  st.shared    %r152, %r165
bb81:
  ld.global    %r191, %r85
  fma.f32      %r192, %r168, %r84, %r107
  ld.global    %r193, %r112
  and.b32      %r194, %r94, %r173
  ld.shared    %r195, %r38
  add.s32      %r196, %r14, %r55
  mul.f32      %r197, %r47, %r57
  ld.global    %r198, %r96
  setp         %r199, %r144, %r114
  br %r199, bb83, p=0.15128
bb82:
  fma.f32      %r200, %r122, %r83, %r42
  mul.f32      %r201, %r89, %r151
bb83:
  sqrt.f32     %r202, %r97
  sin.f32      %r203, %r56
  fma.f32      %r204, %r108, %r12, %r44
  add.f32      %r205, %r108, %r90
  add.f32      %r4, %r7, %r98
  ld.shared    %r206, %r30
  fma.f32      %r207, %r16, %r82, %r56
  setp         %r208, %r23, %r205
  br %r208, bb85, p=0.750397
bb84:
  add.s32      %r55, %r145, %r75
  jmp bb86
bb85:
  mul.f32      %r55, %r75, %r145
bb86:
  setp         %r209, %r130, %r23
  br %r209, bb88, p=0.0111415
bb87:
  add.s32      %r120, %r77, %r39
  jmp bb89
bb88:
  mul.f32      %r120, %r39, %r77
bb89:
  setp         %r210, %r99, %r130
  br %r210, bb91, p=0.282516
bb90:
  add.s32      %r39, %r55, %r170
  jmp bb92
bb91:
  mul.f32      %r39, %r170, %r55
bb92:
  mov          %r211
bb93:
  sub.f32      %r212, %r196, %r191
  ld.global    %r213, %r47
  tex          %r214, %r88
  add.s32      %r211, %r211, %r211
  setp         %r215, %r211
  br %r215, bb93, loop=3
bb94:
  mov          %r216
bb95:
  mul.f32      %r22, %r19, %r75
  ld.shared    %r217, %r173
  ld.global.wide64 %r218, %r33
  st.global    %r197, %r3
  fma.f32      %r219, %r160, %r204, %r98
  mul.f32      %r220, %r124, %r107
  add.s32      %r19, %r149, %r47
  mul.f32      %r221, %r26, %r77
  ld.global    %r222, %r195
  add.s32      %r216, %r216, %r216
  setp         %r223, %r216
  br %r223, bb95, loop=7
bb96:
  fma.f32      %r224, %r77, %r150, %r23
  and.b32      %r225, %r211, %r144
  add.s32      %r35, %r12, %r79
  add.s32      %r226, %r23, %r13
  setp         %r227, %r95, %r131
  br %r227, bb98, p=0.28913
bb97:
  add.s32      %r35, %r171, %r214
  jmp bb99
bb98:
  mul.f32      %r35, %r214, %r171
bb99:
  setp         %r228, %r197, %r22
  br %r228, bb101, p=0.0978689
bb100:
  add.s32      %r38, %r55, %r45
  jmp bb102
bb101:
  mul.f32      %r38, %r45, %r55
bb102:
  st.global    %r150, %r4
  ret
